package workload

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ahbpower/internal/amba/ahb"
)

// referenceGenerate is the materializing generator the cursor replaced,
// kept verbatim (one slice per write, append of composite literals) as
// the oracle for Generate's RNG draw order and output.
func referenceGenerate(cfg Config) ([]ahb.Sequence, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	beats := cfg.BurstBeats
	if beats == 0 {
		beats = 1
	}
	gen := &referenceDataGen{pattern: cfg.Pattern, rng: rng, state: rng.Uint32()}
	seqs := make([]ahb.Sequence, 0, cfg.NumSequences)
	for s := 0; s < cfg.NumSequences; s++ {
		window := cfg
		if cfg.LocalityWindow > 0 && cfg.LocalityWindow < cfg.AddrSize {
			nWin := cfg.AddrSize / cfg.LocalityWindow
			w := uint32(rng.Int63n(int64(nWin)))
			window.AddrBase = cfg.AddrBase + w*cfg.LocalityWindow
			window.AddrSize = cfg.LocalityWindow
		}
		pairs := cfg.PairsMin + rng.Intn(cfg.PairsMax-cfg.PairsMin+1)
		ops := make([]ahb.Op, 0, 2*pairs)
		for p := 0; p < pairs; p++ {
			addr := referenceRandAddr(&window, rng, beats)
			data := make([]uint32, beats)
			for b := range data {
				data[b] = gen.next()
			}
			ops = append(ops,
				ahb.Op{Kind: ahb.OpWrite, Addr: addr, Data: data, Size: ahb.Size32},
				ahb.Op{Kind: ahb.OpRead, Addr: addr, Beats: beats, Size: ahb.Size32},
			)
		}
		idle := cfg.IdleMin
		if cfg.IdleMax > cfg.IdleMin {
			idle += rng.Intn(cfg.IdleMax - cfg.IdleMin + 1)
		}
		seqs = append(seqs, ahb.Sequence{Ops: ops, IdleAfter: idle})
	}
	return seqs, nil
}

func referenceRandAddr(c *Config, rng *rand.Rand, beats int) uint32 {
	span := uint32(beats) * 4
	for {
		off := uint32(rng.Int63n(int64(c.AddrSize))) &^ 3
		if off+span > c.AddrSize {
			continue
		}
		addr := c.AddrBase + off
		if ahb.CrossesKB(addr, beats, ahb.Size32) {
			continue
		}
		return addr
	}
}

// referenceDataGen is the write-data generator as it was before the
// cursor's bounded draws, kept verbatim so the oracle draws through
// math/rand alone.
type referenceDataGen struct {
	pattern Pattern
	rng     *rand.Rand
	state   uint32
}

func (g *referenceDataGen) next() uint32 {
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

// checkScript asserts Generate's script deep-equals the reference and
// keeps every beat word-aligned, inside the configured window and inside
// one 1 KB block.
func checkScript(t *testing.T, cfg Config) {
	t.Helper()
	want, err := referenceGenerate(cfg)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	got, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%+v: sequence %d differs from the reference", cfg, i)
			}
		}
		t.Fatalf("%+v: %d sequences, reference has %d", cfg, len(got), len(want))
	}
	end := uint64(cfg.AddrBase) + uint64(cfg.AddrSize)
	for i, s := range got {
		for _, op := range s.Ops {
			beats := max(op.Beats, len(op.Data), 1)
			last := uint64(op.Addr) + 4*uint64(beats-1)
			switch {
			case op.Addr%4 != 0:
				t.Fatalf("%+v: sequence %d: address %#x not word-aligned", cfg, i, op.Addr)
			case op.Addr < cfg.AddrBase || last >= end:
				t.Fatalf("%+v: sequence %d: %d-beat burst at %#x leaves [%#x, %#x)", cfg, i, beats, op.Addr, cfg.AddrBase, end)
			case ahb.CrossesKB(op.Addr, beats, ahb.Size32):
				t.Fatalf("%+v: sequence %d: %d-beat burst at %#x crosses 1 KB", cfg, i, beats, op.Addr)
			}
		}
	}
}

// TestGenerateMatchesReference pins the cursor-based Generate to the
// materializing generator it replaced, over patterns x burst lengths x
// locality windows x idle ranges.
func TestGenerateMatchesReference(t *testing.T) {
	for _, pat := range []Pattern{PatternRandom, PatternLowActivity, PatternCounter} {
		for _, burst := range []int{0, 1, 4, 8, 16} {
			for _, lw := range []uint32{0, 0x400, 0x1000, 0x3000} {
				for _, idle := range [][2]int{{0, 0}, {3, 3}, {1, 6}, {35, 70}} {
					cfg := Config{
						Seed:         int64(burst)*131 + int64(lw) + int64(idle[1]),
						NumSequences: 40,
						PairsMin:     1, PairsMax: 12,
						IdleMin: idle[0], IdleMax: idle[1],
						AddrBase: 0x1000, AddrSize: 0x3000,
						LocalityWindow: lw,
						Pattern:        pat,
						BurstBeats:     burst,
					}
					t.Run(fmt.Sprintf("%s/burst=%d/window=%#x/idle=%d-%d", pat, burst, lw, idle[0], idle[1]),
						func(t *testing.T) { checkScript(t, cfg) })
				}
			}
		}
	}
	checkScript(t, PaperTestbench(1, 300))
}

// TestCursorAliasesItsBuffers pins the cursor's contract: a sequence from
// Next is valid until the next call and the next sequence reuses its
// storage, while one from NextOwned keeps storage of its own.
func TestCursorAliasesItsBuffers(t *testing.T) {
	cfg := validCfg()
	cfg.PairsMin, cfg.PairsMax = 4, 4
	cfg.BurstBeats = 4
	want, err := referenceGenerate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCursor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	owned, _ := c.NextOwned()
	first, _ := c.Next()
	second, _ := c.Next()
	if &first.Ops[0] != &second.Ops[0] || &first.Ops[0].Data[0] != &second.Ops[0].Data[0] {
		t.Error("equal-length sequences from Next do not share the cursor's buffers")
	}
	if !reflect.DeepEqual(owned, want[0]) || !reflect.DeepEqual(second, want[2]) {
		t.Error("the cursor's sequences differ from the reference")
	}
	if got := cap(owned.Ops[0].Data); got != 4 {
		t.Errorf("an owned write's data has capacity %d, want its own 4 beats", got)
	}
	for c.Remaining() > 0 {
		c.Next()
	}
	if _, ok := c.Next(); ok {
		t.Error("Next yielded past NumSequences")
	}
}

// TestGenerateAllocatesPerSequence pins the materializing path's
// footprint: one op slice and one data backing per sequence, plus a
// constant for the cursor and the script slice.
func TestGenerateAllocatesPerSequence(t *testing.T) {
	cfg := PaperTestbench(0, 202)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Generate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if max := float64(2*cfg.NumSequences + 16); allocs > max {
		t.Errorf("Generate made %.0f allocations for %d sequences, want at most %.0f", allocs, cfg.NumSequences, max)
	}
}

// TestValidateRefusesUndrawableWindows covers the windows the address
// draw could never satisfy, which used to spin Generate forever or emit
// unaligned addresses, next to the tight windows that still work, and
// the pair-count ceiling: a cursor holds a whole sequence, so at most
// MaxPairs pairs per sequence, however short the horizon.
func TestValidateRefusesUndrawableWindows(t *testing.T) {
	cfg := func(mod func(*Config)) Config {
		c := Config{Seed: 1, NumSequences: 3, PairsMin: 1, PairsMax: 2, AddrSize: 0x3000}
		mod(&c)
		return c
	}
	bad := map[string]Config{
		"burst wider than the window": cfg(func(c *Config) { c.AddrSize, c.BurstBeats = 4, 16 }),
		"only slot crosses 1 KB":      cfg(func(c *Config) { c.AddrBase, c.AddrSize, c.BurstBeats = 0x3FC, 64, 16 }),
		"locality window too small":   cfg(func(c *Config) { c.LocalityWindow, c.BurstBeats = 8, 4 }),
		"unaligned locality window":   cfg(func(c *Config) { c.LocalityWindow = 0x402 }),
		"unaligned base":              cfg(func(c *Config) { c.AddrBase = 2 }),
		"window wraps 32 bits":        cfg(func(c *Config) { c.AddrBase = 0xFFFFF000 }),
		"idle range overflows":        cfg(func(c *Config) { c.IdleMax = math.MaxInt }),
		"pairs above MaxPairs":        cfg(func(c *Config) { c.PairsMax = MaxPairs + 1 }),
		"a billion pairs":             cfg(func(c *Config) { c.PairsMin, c.PairsMax = 1<<30, 1<<30 }),
	}
	for name, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: %+v accepted", name, c)
		}
	}
	good := map[string]Config{
		"burst fills the window":    cfg(func(c *Config) { c.AddrSize, c.BurstBeats = 64, 16 }),
		"slot at the next 1 KB":     cfg(func(c *Config) { c.AddrBase, c.AddrSize, c.BurstBeats = 0x3FC, 68, 16 }),
		"whole 32-bit space":        cfg(func(c *Config) { c.AddrSize, c.LocalityWindow = math.MaxUint32, 0x1000 }),
		"windows of one burst each": cfg(func(c *Config) { c.LocalityWindow, c.BurstBeats = 16, 4 }),
		"MaxPairs pairs":            cfg(func(c *Config) { c.PairsMin, c.PairsMax = MaxPairs, MaxPairs }),
	}
	for name, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %+v refused: %v", name, c, err)
			continue
		}
		checkScript(t, c)
	}
}

// FuzzCursorMatchesReference feeds arbitrary Validate-accepted
// configurations to Generate: its script must equal the reference
// generator's, with every beat word-aligned, inside the window and
// inside one 1 KB block. Sequence and pair counts are folded into small
// ranges so each input runs in bounded memory.
func FuzzCursorMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(1), uint8(5), int64(0), int64(9), uint32(0), uint32(0x3000), uint32(0), uint8(0), 1)
	f.Add(int64(7), uint8(9), uint8(15), uint8(20), int64(35), int64(70), uint32(0), uint32(0x3000), uint32(0x1000), uint8(1), 16)
	f.Add(int64(3), uint8(2), uint8(2), uint8(0), int64(1), int64(1), uint32(0x3FC), uint32(68), uint32(0), uint8(2), 16)
	f.Add(int64(5), uint8(3), uint8(1), uint8(3), int64(0), int64(4), uint32(0), uint32(math.MaxUint32), uint32(0x400), uint8(0), 8)
	f.Fuzz(func(t *testing.T, seed int64, nseq, pmin, pspan uint8, imin, imax int64,
		base, size, window uint32, pattern uint8, burst int) {
		cfg := Config{
			Seed:         seed,
			NumSequences: 1 + int(nseq%32),
			PairsMin:     1 + int(pmin%16),
			IdleMin:      int(imin), IdleMax: int(imax),
			AddrBase: base, AddrSize: size,
			LocalityWindow: window,
			Pattern:        Pattern(pattern % 4),
			BurstBeats:     burst,
		}
		cfg.PairsMax = cfg.PairsMin + int(pspan%16)
		if cfg.Validate() != nil {
			return
		}
		checkScript(t, cfg)
	})
}

// TestNextShapeMatchesNext pins the shape draw to Next over patterns x
// burst lengths x locality windows x idle ranges: a cursor that
// alternates NextShape and Next yields, at every position, the sequence
// Next yields there, or its shape, so the shape draw makes exactly
// Next's draws, write data included.
func TestNextShapeMatchesNext(t *testing.T) {
	for _, pat := range []Pattern{PatternRandom, PatternLowActivity, PatternCounter} {
		for _, burst := range []int{0, 1, 4, 16} {
			for _, lw := range []uint32{0, 0x400, 0x1000} {
				for _, idle := range [][2]int{{0, 0}, {1, 6}} {
					cfg := Config{
						Seed:         int64(burst)*131 + int64(lw) + int64(idle[1]),
						NumSequences: 40,
						PairsMin:     1, PairsMax: 12,
						IdleMin: idle[0], IdleMax: idle[1],
						AddrBase: 0x1000, AddrSize: 0x3000,
						LocalityWindow: lw,
						Pattern:        pat,
						BurstBeats:     burst,
					}
					want, err := Generate(cfg)
					if err != nil {
						t.Fatal(err)
					}
					c, err := NewCursor(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for i, seq := range want {
						if i%2 == 1 {
							got, _ := c.Next()
							if !reflect.DeepEqual(got, seq) {
								t.Fatalf("%+v: sequence %d after a shape draw differs from Next's", cfg, i)
							}
							continue
						}
						sh, _ := c.NextShape()
						if len(sh.Addrs) != len(seq.Ops)/2 || sh.Beats != seq.Ops[1].Beats || sh.IdleAfter != seq.IdleAfter {
							t.Fatalf("%+v: shape %d is %d pairs of %d beats idling %d, Next gives %d ops of %d beats idling %d",
								cfg, i, len(sh.Addrs), sh.Beats, sh.IdleAfter, len(seq.Ops), seq.Ops[1].Beats, seq.IdleAfter)
						}
						for p, addr := range sh.Addrs {
							if addr != seq.Ops[2*p].Addr || addr != seq.Ops[2*p+1].Addr {
								t.Fatalf("%+v: shape %d pair %d at %#x, Next's at %#x", cfg, i, p, addr, seq.Ops[2*p].Addr)
							}
						}
					}
					if _, ok := c.NextShape(); ok {
						t.Fatalf("%+v: NextShape yielded past NumSequences", cfg)
					}
				}
			}
		}
	}
}

// TestNextShapeAllocatesNothing pins the shape draw's footprint: once its
// address buffer has grown to the longest sequence, a draw allocates
// nothing.
func TestNextShapeAllocatesNothing(t *testing.T) {
	cfg := PaperTestbench(0, 1000)
	cfg.PairsMin = cfg.PairsMax
	c, err := NewCursor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.NextShape()
	if allocs := testing.AllocsPerRun(100, func() { c.NextShape() }); allocs != 0 {
		t.Errorf("NextShape made %.0f allocations per sequence, want 0", allocs)
	}
}
