// Package workload generates the bus traffic of the paper's testbench:
// masters executing "WRITE-READ non-interruptible sequences and IDLE
// commands, for a random number of times", plus generic address/data
// pattern generators for design-space exploration.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"ahbpower/internal/amba/ahb"
)

// Pattern selects how write data is generated; data activity directly
// drives the Hamming-distance terms of the energy macromodels.
type Pattern uint8

// Data patterns.
const (
	// PatternRandom draws uniform random words (average HD = w/2).
	PatternRandom Pattern = iota
	// PatternLowActivity flips a small random number of bits per step
	// (average HD ≈ 2), modeling correlated data streams.
	PatternLowActivity
	// PatternCounter produces an incrementing counter (average HD ≈ 2).
	PatternCounter
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case PatternRandom:
		return "random"
	case PatternLowActivity:
		return "low-activity"
	case PatternCounter:
		return "counter"
	}
	return fmt.Sprintf("pattern(%d)", uint8(p))
}

// ParsePattern parses a pattern name as produced by Pattern.String. The
// empty string parses as PatternRandom, the paper's default.
func ParsePattern(s string) (Pattern, error) {
	switch s {
	case "", "random":
		return PatternRandom, nil
	case "low-activity":
		return PatternLowActivity, nil
	case "counter":
		return PatternCounter, nil
	}
	return PatternRandom, fmt.Errorf("workload: unknown pattern %q (want random, low-activity or counter)", s)
}

// Config parameterizes a master's traffic.
type Config struct {
	Seed         int64
	NumSequences int
	// Each sequence contains PairsMin..PairsMax WRITE-READ pairs.
	PairsMin, PairsMax int
	// After each sequence the master idles (bus released) for
	// IdleMin..IdleMax cycles.
	IdleMin, IdleMax int
	// Addresses are drawn word-aligned from [AddrBase, AddrBase+AddrSize).
	AddrBase, AddrSize uint32
	// LocalityWindow, when nonzero, confines each sequence to one
	// LocalityWindow-sized aligned window inside the address range —
	// modeling a master working on a buffer in one slave, so that the
	// slave mux re-selects per sequence rather than per transfer.
	LocalityWindow uint32
	Pattern        Pattern
	// BurstBeats > 1 turns each WRITE/READ into a fixed burst of that
	// length (1, 4, 8 or 16). The paper's testbench uses single transfers.
	BurstBeats int
}

// Validate checks the configuration. Beyond the ranges, it requires what
// the address draw needs to end with aligned addresses: a word-aligned
// base, a window inside the 32-bit space, and room in every locality
// window for a burst that does not cross a 1 KB boundary (without one,
// the draw would retry forever).
func (c *Config) Validate() error {
	if c.NumSequences < 1 {
		return fmt.Errorf("workload: NumSequences=%d, want >=1", c.NumSequences)
	}
	if c.PairsMin < 1 || c.PairsMax < c.PairsMin {
		return fmt.Errorf("workload: bad pairs range [%d,%d]", c.PairsMin, c.PairsMax)
	}
	if c.IdleMin < 0 || c.IdleMax < c.IdleMin || c.IdleMax-c.IdleMin == math.MaxInt {
		return fmt.Errorf("workload: bad idle range [%d,%d]", c.IdleMin, c.IdleMax)
	}
	if c.AddrSize < 4 {
		return fmt.Errorf("workload: AddrSize=%d, want >=4", c.AddrSize)
	}
	switch c.BurstBeats {
	case 0, 1, 4, 8, 16:
	default:
		return fmt.Errorf("workload: BurstBeats=%d, want 1/4/8/16", c.BurstBeats)
	}
	if c.AddrBase%4 != 0 {
		return fmt.Errorf("workload: AddrBase=%#x is not word-aligned", c.AddrBase)
	}
	if uint64(c.AddrBase)+uint64(c.AddrSize) > 1<<32 {
		return fmt.Errorf("workload: window [%#x, +%#x) extends past the 32-bit address space", c.AddrBase, c.AddrSize)
	}
	span := 4 * uint32(max(c.BurstBeats, 1))
	base, size, windows := c.AddrBase, c.AddrSize, uint32(1)
	if lw := c.LocalityWindow; lw > 0 && lw < c.AddrSize {
		if lw%4 != 0 {
			return fmt.Errorf("workload: LocalityWindow=%#x is not a multiple of 4", lw)
		}
		// Window bases repeat modulo 1 KB after at most 256 windows.
		size, windows = lw, min(c.AddrSize/lw, 256)
	}
	for w := uint32(0); w < windows; w++ {
		if b := base + w*size; !burstFits(b, size, span) {
			return fmt.Errorf("workload: window [%#x, +%#x) has no word-aligned slot for a %d-byte burst that stays inside one 1 KB block", b, size, span)
		}
	}
	return nil
}

// burstFits reports whether the window [base, base+size), base
// word-aligned, holds a span-byte burst that does not cross a 1 KB
// boundary: the first slot, or else the slot at the next boundary.
func burstFits(base, size, span uint32) bool {
	if size < span {
		return false
	}
	return base%1024+span <= 1024 || 1024-base%1024+span <= size
}

// PaperTestbench returns the configuration of the paper's testbench master
// m: single-word WRITE-READ pairs over a 3-slave address map, with
// sequence lengths and idle gaps chosen to reproduce the Table 1
// instruction mix (long data sequences, idle-handover gaps of a dozen or
// so cycles).
func PaperTestbench(m int, numSequences int) Config {
	return Config{
		Seed:           0x5EED + int64(m)*7919,
		NumSequences:   numSequences,
		PairsMin:       15,
		PairsMax:       35,
		IdleMin:        35,
		IdleMax:        70,
		AddrBase:       0,
		AddrSize:       3 * 0x1000, // spans all three slaves
		LocalityWindow: 0x1000,     // each sequence works within one slave
		Pattern:        PatternRandom,
		BurstBeats:     1,
	}
}

// Cursor yields a configuration's sequences one at a time, drawing from
// the seeded RNG in exactly the order Generate's scripts have always been
// drawn in. Through Next a cursor holds O(1) traffic: each sequence it
// returns lives in buffers it reuses for the next one, so a consumer that
// reads each sequence once (the transaction walk) never materializes a
// script.
type Cursor struct {
	cfg   Config
	rng   *rand.Rand
	gen   dataGen
	beats int
	left  int // sequences still to yield
	ops   []ahb.Op
	data  []uint32
}

// NewCursor validates cfg and returns a cursor at its first sequence.
func NewCursor(cfg Config) (*Cursor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &Cursor{cfg: cfg, rng: rng, beats: max(cfg.BurstBeats, 1), left: cfg.NumSequences}
	c.gen = dataGen{pattern: cfg.Pattern, rng: rng, state: rng.Uint32()}
	return c, nil
}

// Remaining returns the number of sequences Next has still to yield.
func (c *Cursor) Remaining() int { return c.left }

// Next returns the next sequence, or false once all NumSequences have
// been yielded. The sequence's ops and write data alias buffers the
// cursor reuses: they are valid until the next call and must not be
// modified.
func (c *Cursor) Next() (ahb.Sequence, bool) { return c.next(false) }

// NextOwned is Next for a sequence that outlives the call: the sequence
// gets storage of its own, one op slice and one backing array its
// writes' data slices share.
func (c *Cursor) NextOwned() (ahb.Sequence, bool) { return c.next(true) }

func (c *Cursor) next(own bool) (ahb.Sequence, bool) {
	if c.left == 0 {
		return ahb.Sequence{}, false
	}
	c.left--
	cfg, rng, beats := &c.cfg, c.rng, c.beats
	base, size := cfg.AddrBase, cfg.AddrSize
	if cfg.LocalityWindow > 0 && cfg.LocalityWindow < cfg.AddrSize {
		nWin := cfg.AddrSize / cfg.LocalityWindow
		base += uint32(rng.Int63n(int64(nWin))) * cfg.LocalityWindow
		size = cfg.LocalityWindow
	}
	pairs := cfg.PairsMin + rng.Intn(cfg.PairsMax-cfg.PairsMin+1)
	if own || cap(c.ops) < 2*pairs {
		c.ops = make([]ahb.Op, 2*pairs)
		c.data = make([]uint32, pairs*beats)
	}
	ops, data := c.ops[:2*pairs], c.data[:pairs*beats]
	if own {
		c.ops, c.data = nil, nil // the caller keeps them
	}
	for p := 0; p < pairs; p++ {
		addr := randAddr(rng, base, size, beats)
		d := data[p*beats : (p+1)*beats : (p+1)*beats]
		for b := range d {
			d[b] = c.gen.next()
		}
		// Ops are written in place, field by field. A slot keeps its kind
		// across sequences (WRITE at even indices, READ at odd), so the
		// fields its kind leaves unset are still zero.
		w, r := &ops[2*p], &ops[2*p+1]
		w.Kind, w.Addr, w.Data, w.Size = ahb.OpWrite, addr, d, ahb.Size32
		r.Kind, r.Addr, r.Beats, r.Size = ahb.OpRead, addr, beats, ahb.Size32
	}
	idle := cfg.IdleMin
	if cfg.IdleMax > cfg.IdleMin {
		idle += rng.Intn(cfg.IdleMax - cfg.IdleMin + 1)
	}
	return ahb.Sequence{Ops: ops, IdleAfter: idle}, true
}

// Generate produces the master script described by the configuration:
// every sequence of a cursor, each in storage of its own.
func Generate(cfg Config) ([]ahb.Sequence, error) {
	c, err := NewCursor(cfg)
	if err != nil {
		return nil, err
	}
	seqs := make([]ahb.Sequence, 0, cfg.NumSequences)
	for s, ok := c.NextOwned(); ok; s, ok = c.NextOwned() {
		seqs = append(seqs, s)
	}
	return seqs, nil
}

// randAddr draws a word-aligned address in [base, base+size) such that a
// burst of the given length neither leaves the window nor crosses a 1 KB
// boundary. Validate guarantees such an address exists.
func randAddr(rng *rand.Rand, base, size uint32, beats int) uint32 {
	span := uint32(beats) * 4
	for {
		off := uint32(rng.Int63n(int64(size))) &^ 3
		if off+span > size {
			continue
		}
		addr := base + off
		if ahb.CrossesKB(addr, beats, ahb.Size32) {
			continue
		}
		return addr
	}
}

// dataGen produces write data under a pattern.
type dataGen struct {
	pattern Pattern
	rng     *rand.Rand
	state   uint32
}

func (g *dataGen) next() uint32 {
	switch g.pattern {
	case PatternLowActivity:
		flips := 1 + g.rng.Intn(3)
		for i := 0; i < flips; i++ {
			g.state ^= 1 << uint(g.rng.Intn(32))
		}
		return g.state
	case PatternCounter:
		g.state++
		return g.state
	default:
		g.state = g.rng.Uint32()
		return g.state
	}
}
