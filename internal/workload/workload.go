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

// MaxPairs bounds the WRITE-READ pairs of one sequence. A cursor holds a
// whole sequence at a time, so the bound is what keeps one configuration
// from asking for gigabytes whatever its horizon.
const MaxPairs = 1 << 16

// Validate checks the configuration. Beyond the ranges, which allow at
// most MaxPairs pairs per sequence, it requires what the address draw
// needs to end with aligned addresses: a word-aligned base, a window
// inside the 32-bit space, and room in every locality window for a burst
// that does not cross a 1 KB boundary (without one, the draw would retry
// forever).
func (c *Config) Validate() error {
	if c.NumSequences < 1 {
		return fmt.Errorf("workload: NumSequences=%d, want >=1", c.NumSequences)
	}
	if c.PairsMin < 1 || c.PairsMax < c.PairsMin {
		return fmt.Errorf("workload: bad pairs range [%d,%d]", c.PairsMin, c.PairsMax)
	}
	if c.PairsMax > MaxPairs {
		return fmt.Errorf("workload: PairsMax=%d, want <=%d", c.PairsMax, MaxPairs)
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
// reads each sequence once never materializes a script. Through
// NextShape it yields only what the transaction walk reads of each
// sequence, and builds no ops at all.
type Cursor struct {
	cfg   Config
	rng   *rand.Rand
	gen   dataGen
	beats int
	left  int // sequences still to yield
	// size is every sequence's address window: the locality window when
	// windows is set (each sequence then draws its window's offset), else
	// the whole range.
	size    uint32
	windows bool
	// The configuration's bounded draws, fixed when the cursor is made.
	win, pairs, addr, idle bound
	// buf holds the last sequence's pair addresses, then its write data
	// when it was drawn with data.
	buf []uint32
	ops []ahb.Op
}

// NewCursor validates cfg and returns a cursor at its first sequence.
func NewCursor(cfg Config) (*Cursor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &Cursor{cfg: cfg, rng: rng, beats: max(cfg.BurstBeats, 1), left: cfg.NumSequences, size: cfg.AddrSize}
	if lw := cfg.LocalityWindow; lw > 0 && lw < cfg.AddrSize {
		c.windows, c.size = true, lw
		c.win = int63nBound(int64(cfg.AddrSize / lw))
	}
	c.pairs = intnBound(cfg.PairsMax - cfg.PairsMin + 1)
	c.addr = int63nBound(int64(c.size))
	c.idle = intnBound(cfg.IdleMax - cfg.IdleMin + 1)
	c.gen = dataGen{pattern: cfg.Pattern, rng: rng, state: rng.Uint32()}
	return c, nil
}

// Remaining returns the number of sequences still to yield, through
// Next or NextShape.
func (c *Cursor) Remaining() int { return c.left }

// Next returns the next sequence, or false once all NumSequences have
// been yielded. The sequence's ops and write data alias buffers the
// cursor reuses: they are valid until the next call and must not be
// modified.
func (c *Cursor) Next() (ahb.Sequence, bool) { return c.next(false) }

// NextOwned is Next for a sequence that outlives the call: the sequence
// gets storage of its own, one op slice and one backing array its
// writes' data slices share (behind the pair addresses it was drawn
// with).
func (c *Cursor) NextOwned() (ahb.Sequence, bool) { return c.next(true) }

func (c *Cursor) next(own bool) (ahb.Sequence, bool) {
	if c.left == 0 {
		return ahb.Sequence{}, false
	}
	addrs, data, idle := c.draw(true, own)
	pairs, beats := len(addrs), c.beats
	if own || cap(c.ops) < 2*pairs {
		c.ops = make([]ahb.Op, 2*pairs)
	}
	ops := c.ops[:2*pairs]
	if own {
		c.ops, c.buf = nil, nil // the caller keeps them
	}
	for p, addr := range addrs {
		d := data[p*beats : (p+1)*beats : (p+1)*beats]
		// Ops are written in place, field by field. A slot keeps its kind
		// across sequences (WRITE at even indices, READ at odd), so the
		// fields its kind leaves unset are still zero.
		w, r := &ops[2*p], &ops[2*p+1]
		w.Kind, w.Addr, w.Data, w.Size = ahb.OpWrite, addr, d, ahb.Size32
		r.Kind, r.Addr, r.Beats, r.Size = ahb.OpRead, addr, beats, ahb.Size32
	}
	return ahb.Sequence{Ops: ops, IdleAfter: idle}, true
}

// Shape is what a sequence is made of, without its write data: a WRITE
// of Beats beats then a READ of Beats beats at each of Addrs, then
// IdleAfter idle cycles.
type Shape struct {
	Addrs     []uint32
	Beats     int
	IdleAfter int
}

// NextShape advances the cursor past its next sequence exactly as Next
// does, making the same draws, and returns the sequence's shape, or false
// once all NumSequences have been yielded. Addrs aliases a buffer the
// cursor reuses: it is valid until the next call and must not be
// modified. Next and NextShape may be mixed; each call yields the next
// sequence.
func (c *Cursor) NextShape() (Shape, bool) {
	if c.left == 0 {
		return Shape{}, false
	}
	addrs, _, idle := c.draw(false, false)
	return Shape{Addrs: addrs, Beats: c.beats, IdleAfter: idle}, true
}

// draw makes every RNG draw of the next sequence, in the order Generate's
// scripts have always been drawn in: the locality window, the pair count,
// then each pair's address followed by its write data, then the idle
// gap. It returns the pair addresses and the idle gap, and with data set
// the write data, beats words per pair; without it the data draws are
// made and dropped, so the stream stays Next's. Addresses and data share
// c.buf, in fresh storage when own is set, so a Next that reuses its
// buffers allocates no more often than its ops grow.
func (c *Cursor) draw(data, own bool) (addrs, d []uint32, idle int) {
	c.left--
	cfg, rng, beats := &c.cfg, c.rng, c.beats
	base := cfg.AddrBase
	if c.windows {
		base += uint32(c.win.draw(rng)) * cfg.LocalityWindow
	}
	pairs := cfg.PairsMin + int(c.pairs.draw(rng))
	n := pairs
	if data {
		n += pairs * beats
	}
	if own || cap(c.buf) < n {
		c.buf = make([]uint32, n)
	}
	addrs = c.buf[:pairs]
	if data {
		d = c.buf[pairs:n]
	}
	for p := range addrs {
		addrs[p] = c.randAddr(base)
		for b := 0; b < beats; b++ {
			v := c.gen.next()
			if d != nil {
				d[p*beats+b] = v
			}
		}
	}
	idle = cfg.IdleMin
	if cfg.IdleMax > cfg.IdleMin {
		idle += int(c.idle.draw(rng))
	}
	return addrs, d, idle
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

// randAddr draws a word-aligned address in [base, base+c.size) such that
// a burst of the cursor's length neither leaves the window nor crosses a
// 1 KB boundary. Validate guarantees such an address exists.
func (c *Cursor) randAddr(base uint32) uint32 {
	span := uint32(c.beats) * 4
	for {
		off := uint32(c.addr.draw(c.rng)) &^ 3
		if off+span > c.size {
			continue
		}
		addr := base + off
		if ahb.CrossesKB(addr, c.beats, ahb.Size32) {
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

// The low-activity pattern's draws: Intn(3) flips, each of bit Intn(32).
var (
	flipsBound = intnBound(3)
	bitBound   = intnBound(32)
)

func (g *dataGen) next() uint32 {
	switch g.pattern {
	case PatternLowActivity:
		flips := 1 + flipsBound.draw(g.rng)
		for i := uint64(0); i < flips; i++ {
			g.state ^= 1 << bitBound.draw(g.rng)
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
