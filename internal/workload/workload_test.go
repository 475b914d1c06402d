package workload

import (
	"testing"
	"testing/quick"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/stats"
)

func validCfg() Config {
	return Config{
		Seed:         1,
		NumSequences: 5,
		PairsMin:     2,
		PairsMax:     6,
		IdleMin:      3,
		IdleMax:      9,
		AddrBase:     0,
		AddrSize:     0x3000,
		Pattern:      PatternRandom,
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.NumSequences = 0 },
		func(c *Config) { c.PairsMin = 0 },
		func(c *Config) { c.PairsMax = 1; c.PairsMin = 3 },
		func(c *Config) { c.IdleMin = -1 },
		func(c *Config) { c.IdleMax = 1; c.IdleMin = 5 },
		func(c *Config) { c.AddrSize = 2 },
		func(c *Config) { c.BurstBeats = 3 },
	}
	for i, mod := range mods {
		c := validCfg()
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	c := validCfg()
	if err := c.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(validCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(validCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Ops) != len(b[i].Ops) || a[i].IdleAfter != b[i].IdleAfter {
			t.Fatalf("sequence %d differs", i)
		}
		for j := range a[i].Ops {
			if a[i].Ops[j].Addr != b[i].Ops[j].Addr {
				t.Fatalf("op %d.%d addr differs", i, j)
			}
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	c1 := validCfg()
	c2 := validCfg()
	c2.Seed = 2
	a, _ := Generate(c1)
	b, _ := Generate(c2)
	same := true
	for i := range a {
		if i >= len(b) || len(a[i].Ops) != len(b[i].Ops) {
			same = false
			break
		}
		for j := range a[i].Ops {
			if a[i].Ops[j].Addr != b[i].Ops[j].Addr {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := validCfg()
	seqs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != cfg.NumSequences {
		t.Fatalf("sequences=%d, want %d", len(seqs), cfg.NumSequences)
	}
	for i, s := range seqs {
		pairs := len(s.Ops) / 2
		if len(s.Ops)%2 != 0 {
			t.Fatalf("sequence %d has odd op count", i)
		}
		if pairs < cfg.PairsMin || pairs > cfg.PairsMax {
			t.Errorf("sequence %d pairs=%d outside [%d,%d]", i, pairs, cfg.PairsMin, cfg.PairsMax)
		}
		if s.IdleAfter < cfg.IdleMin || s.IdleAfter > cfg.IdleMax {
			t.Errorf("sequence %d idle=%d outside range", i, s.IdleAfter)
		}
		for j := 0; j < len(s.Ops); j += 2 {
			w, r := s.Ops[j], s.Ops[j+1]
			if w.Kind != ahb.OpWrite || r.Kind != ahb.OpRead {
				t.Fatalf("sequence %d ops %d must be WRITE,READ pair", i, j)
			}
			if w.Addr != r.Addr {
				t.Errorf("pair addresses differ: %#x vs %#x", w.Addr, r.Addr)
			}
		}
	}
}

func TestGenerateAddressesInWindowAndAligned(t *testing.T) {
	f := func(seed int64, sizeKB uint8) bool {
		cfg := validCfg()
		cfg.Seed = seed
		cfg.AddrBase = 0x2000
		cfg.AddrSize = uint32(sizeKB%8+1) * 1024
		seqs, err := Generate(cfg)
		if err != nil {
			return false
		}
		for _, s := range seqs {
			for _, op := range s.Ops {
				if op.Addr%4 != 0 {
					return false
				}
				if op.Addr < cfg.AddrBase || op.Addr >= cfg.AddrBase+cfg.AddrSize {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGenerateBurstsAvoidKBCrossing(t *testing.T) {
	cfg := validCfg()
	cfg.BurstBeats = 16
	cfg.AddrSize = 0x4000
	seqs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seqs {
		for _, op := range s.Ops {
			if ahb.CrossesKB(op.Addr, 16, ahb.Size32) {
				t.Fatalf("burst at %#x crosses 1KB", op.Addr)
			}
			if op.Kind == ahb.OpWrite && len(op.Data) != 16 {
				t.Fatalf("write burst has %d beats", len(op.Data))
			}
		}
	}
}

func TestDataPatternsActivity(t *testing.T) {
	activity := func(p Pattern) float64 {
		cfg := validCfg()
		cfg.Pattern = p
		cfg.NumSequences = 20
		cfg.PairsMin, cfg.PairsMax = 50, 50
		seqs, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var prev uint32
		changes, writes := 0, 0
		for _, s := range seqs {
			for _, op := range s.Ops {
				if op.Kind == ahb.OpWrite {
					if writes > 0 {
						changes += stats.Hamming32(prev, op.Data[0])
					}
					prev = op.Data[0]
					writes++
				}
			}
		}
		if writes < 2 {
			t.Fatalf("pattern %v generated %d writes", p, writes)
		}
		return float64(changes) / float64(writes-1)
	}
	rnd := activity(PatternRandom)
	low := activity(PatternLowActivity)
	cnt := activity(PatternCounter)
	if rnd < 12 || rnd > 20 {
		t.Errorf("random activity=%v, want ~16", rnd)
	}
	if low >= rnd/2 {
		t.Errorf("low-activity %v must be well below random %v", low, rnd)
	}
	if cnt >= rnd/2 {
		t.Errorf("counter %v must be well below random %v", cnt, rnd)
	}
}

func TestPatternString(t *testing.T) {
	if PatternRandom.String() != "random" || PatternLowActivity.String() != "low-activity" ||
		PatternCounter.String() != "counter" {
		t.Error("pattern names")
	}
	if Pattern(9).String() == "" {
		t.Error("unknown pattern must format")
	}
}

func TestPaperTestbenchConfig(t *testing.T) {
	c := PaperTestbench(0, 10)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.BurstBeats != 1 {
		t.Error("paper testbench uses single transfers")
	}
	d := PaperTestbench(1, 10)
	if c.Seed == d.Seed {
		t.Error("masters must get distinct seeds")
	}
}
