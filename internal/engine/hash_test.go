package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"ahbpower/internal/core"
	"ahbpower/internal/fault"
	"ahbpower/internal/metrics"
	"ahbpower/internal/power"
	"ahbpower/internal/topo"
	"ahbpower/internal/workload"
)

func hashableScenario() Scenario {
	return Scenario{
		Name:     "paper",
		System:   core.PaperSystem(),
		Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal},
		Cycles:   500,
	}
}

func TestCanonicalKeyDeterministic(t *testing.T) {
	a, b := hashableScenario(), hashableScenario()
	ka, ok := a.CanonicalKey()
	if !ok || ka == "" {
		t.Fatalf("CanonicalKey = %q, %v; want non-empty, true", ka, ok)
	}
	kb, _ := b.CanonicalKey()
	if ka != kb {
		t.Errorf("identical scenarios hash differently: %s vs %s", ka, kb)
	}
	if k2, _ := a.CanonicalKey(); k2 != ka {
		t.Errorf("re-hashing the same scenario changed the key: %s vs %s", k2, ka)
	}
}

func TestCanonicalKeySensitivity(t *testing.T) {
	bsc := hashableScenario()
	base, _ := bsc.CanonicalKey()
	muts := map[string]func(*Scenario){
		"Name":         func(sc *Scenario) { sc.Name = "other" },
		"Cycles":       func(sc *Scenario) { sc.Cycles = 501 },
		"NumSlaves":    func(sc *Scenario) { sc.System.NumSlaves = 4 },
		"DataWidth":    func(sc *Scenario) { sc.System.DataWidth = 16 },
		"SlaveWaits":   func(sc *Scenario) { sc.System.SlaveWaits = 1 },
		"Policy":       func(sc *Scenario) { sc.System.Policy++ },
		"Style":        func(sc *Scenario) { sc.Analyzer.Style = core.StylePrivate },
		"Tech":         func(sc *Scenario) { sc.Analyzer.Tech = power.Tech{VDD: 1.2, CPD: 1e-15, CO: 2e-15} },
		"DPM":          func(sc *Scenario) { sc.Analyzer.DPM = &core.DPMConfig{IdleThreshold: 4} },
		"SkipAnalyzer": func(sc *Scenario) { sc.SkipAnalyzer = true },
		"Workloads": func(sc *Scenario) {
			sc.Workloads = []workload.Config{{Seed: 1, NumSequences: 2, PairsMin: 1, PairsMax: 2, AddrSize: 64}}
		},
		"RecordActivity":  func(sc *Scenario) { sc.Analyzer.RecordActivity = true },
		"ClockPeriod":     func(sc *Scenario) { sc.System.ClockPeriod *= 2 },
		"DefaultMaster":   func(sc *Scenario) { sc.System.WithDefaultMaster = false },
		"SlaveRegionSize": func(sc *Scenario) { sc.System.SlaveRegionSize = 0x2000 },
	}
	for name, mut := range muts {
		sc := hashableScenario()
		mut(&sc)
		k, ok := sc.CanonicalKey()
		if !ok {
			t.Errorf("%s: mutated scenario unexpectedly unhashable", name)
			continue
		}
		if k == base {
			t.Errorf("%s: mutation did not change the canonical key", name)
		}
	}
	// v2 fields: a fault plan and a per-scenario timeout are simulation
	// inputs and must separate keys.
	fmuts := map[string]func(*Scenario){
		"Faults":    func(sc *Scenario) { sc.Faults = &fault.Plan{Seed: 1} },
		"FaultSeed": func(sc *Scenario) { sc.Faults = &fault.Plan{Seed: 2} },
		"FaultRule": func(sc *Scenario) {
			sc.Faults = &fault.Plan{Seed: 1, Rules: []fault.Rule{{Kind: fault.KindError, Slave: -1, Master: -1, Count: 1}}}
		},
		"FaultRuleArg": func(sc *Scenario) {
			sc.Faults = &fault.Plan{Seed: 1, Rules: []fault.Rule{{Kind: fault.KindError, Slave: -1, Master: -1, Count: 2}}}
		},
		"Timeout": func(sc *Scenario) { sc.Timeout = time.Second },
	}
	seen := map[string]string{"base": base}
	for name, mut := range fmuts {
		sc := hashableScenario()
		mut(&sc)
		k, ok := sc.CanonicalKey()
		if !ok {
			t.Errorf("%s: fault-carrying scenario must stay hashable", name)
			continue
		}
		for other, ko := range seen {
			if k == ko {
				t.Errorf("%s collides with %s", name, other)
			}
		}
		seen[name] = k
	}
	// Identical plans hash identically.
	fa, fb := hashableScenario(), hashableScenario()
	fa.Faults = &fault.Plan{Seed: 9, Rules: []fault.Rule{{Kind: fault.KindSplit, Slave: -1, Master: -1, Hold: 3}}}
	fb.Faults = &fault.Plan{Seed: 9, Rules: []fault.Rule{{Kind: fault.KindSplit, Slave: -1, Master: -1, Hold: 3}}}
	fka, _ := fa.CanonicalKey()
	fkb, _ := fb.CanonicalKey()
	if fka != fkb {
		t.Error("identical fault plans hash differently")
	}

	// Workload seed must separate otherwise identical traffic configs.
	wa, wb := hashableScenario(), hashableScenario()
	wa.Workloads = []workload.Config{{Seed: 1, NumSequences: 2, PairsMin: 1, PairsMax: 2, AddrSize: 64}}
	wb.Workloads = []workload.Config{{Seed: 2, NumSequences: 2, PairsMin: 1, PairsMax: 2, AddrSize: 64}}
	ka, _ := wa.CanonicalKey()
	kb, _ := wb.CanonicalKey()
	if ka == kb {
		t.Error("workload seed change did not change the canonical key")
	}
}

// TestCanonicalKeyGolden pins two keys, one clean and one faulted: a
// change to the canonical encoding that keeps the version tag would
// silently re-address every cached result.
func TestCanonicalKeyGolden(t *testing.T) {
	clean := Scenario{Name: "paper", System: core.PaperSystem(), Cycles: 5000}
	faulted := clean
	faulted.Faults = &fault.Plan{Seed: 7, Rules: []fault.Rule{{Kind: fault.KindError, Slave: 0, Master: -1, Prob: 0.1, Count: 3}}}
	for _, c := range []struct {
		name string
		sc   Scenario
		want string
	}{
		{"clean", clean, "e076f3d59cd99a09ccd6181d448eccd56a9a259f7e2647b19cfd2e09560367cc"},
		{"faulted", faulted, "3454517bcad164375feb6d3732c4412f26a2fc10db6ed3e29c50022661b13068"},
	} {
		if got, ok := c.sc.CanonicalKey(); !ok || got != c.want {
			t.Errorf("%s: key %s (ok=%v), want %s", c.name, got, ok, c.want)
		}
	}
}

// TestCanonicalKeyIgnoresBackend pins the cache-sharing contract: the
// execution backend is a hint about *how* a scenario runs, never about
// *what* it computes, so it must not separate canonical keys. A result
// cached from an event run answers a compiled request and vice versa.
func TestCanonicalKeyIgnoresBackend(t *testing.T) {
	base := hashableScenario()
	bk, ok := base.CanonicalKey()
	if !ok {
		t.Fatal("base scenario unhashable")
	}
	for _, backend := range []string{"event", "compiled", "auto"} {
		sc := hashableScenario()
		sc.Backend = backend
		k, ok := sc.CanonicalKey()
		if !ok {
			t.Fatalf("backend %q: scenario unexpectedly unhashable", backend)
		}
		if k != bk {
			t.Errorf("backend %q changed the canonical key: %s vs %s", backend, k, bk)
		}
	}
}

func TestCanonicalKeyUnhashable(t *testing.T) {
	cases := map[string]func(*Scenario){
		"Setup":  func(sc *Scenario) { sc.Setup = func(*core.System) error { return nil } },
		"Models": func(sc *Scenario) { sc.Analyzer.Models = &power.Models{} },
		"Trace": func(sc *Scenario) {
			tr, _ := metrics.NewTrace(metrics.TraceConfig{Window: 1e-6})
			sc.Analyzer.Trace = tr
		},
	}
	for name, mut := range cases {
		sc := hashableScenario()
		mut(&sc)
		if k, ok := sc.CanonicalKey(); ok {
			t.Errorf("%s: scenario with out-of-band state hashed to %s, want unhashable", name, k)
		}
	}
	// SkipAnalyzer makes analyzer-side state irrelevant: a Trace on a
	// skipped analyzer does not block hashing.
	sc := hashableScenario()
	sc.SkipAnalyzer = true
	sc.Analyzer.Models = &power.Models{}
	if _, ok := sc.CanonicalKey(); !ok {
		t.Error("SkipAnalyzer scenario with Models set must still be hashable")
	}
}

// TestCanonicalKeyAddressesIdenticalResults is the property the serving
// result cache relies on: equal keys imply byte-identical results.
func TestCanonicalKeyAddressesIdenticalResults(t *testing.T) {
	a := RunOne(context.Background(), hashableScenario())
	b := RunOne(context.Background(), hashableScenario())
	if a.Err != nil || b.Err != nil {
		t.Fatalf("runs failed: %v / %v", a.Err, b.Err)
	}
	if a.Report.TotalEnergy != b.Report.TotalEnergy {
		t.Errorf("same canonical scenario, different energies: %g vs %g",
			a.Report.TotalEnergy, b.Report.TotalEnergy)
	}
	if a.Beats != b.Beats {
		t.Errorf("same canonical scenario, different beats: %d vs %d", a.Beats, b.Beats)
	}
}

func TestRunnerHooks(t *testing.T) {
	scs := make([]Scenario, 4)
	for i := range scs {
		scs[i] = hashableScenario()
		scs[i].Cycles = 200
	}
	var mu sync.Mutex
	started := map[int]bool{}
	var done []int
	r := NewRunner(2)
	r.OnStart = func(i int) {
		mu.Lock()
		started[i] = true
		mu.Unlock()
	}
	r.OnDone = func(res Result) {
		mu.Lock()
		done = append(done, res.Index)
		mu.Unlock()
	}
	results := r.Run(context.Background(), scs)
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if len(started) != len(scs) || len(done) != len(scs) {
		t.Errorf("hooks fired for %d starts / %d dones, want %d each", len(started), len(done), len(scs))
	}
}

// TestCanonicalKeyCountVsTopologyTwins is the cache-sharing half of the
// API redesign contract: a count-based scenario and its explicit
// topology twin canonicalize to the same form, so they must share one
// cache key. A topology request on the serving daemon then hits a
// result cached from a legacy count-based request, and vice versa.
func TestCanonicalKeyCountVsTopologyTwins(t *testing.T) {
	counts := hashableScenario()
	twin := topo.Topology{
		Masters: []topo.Master{{}, {}, {Default: true}},
		Slaves: []topo.Slave{
			{Regions: []topo.AddrRange{{Start: 0x0000, Size: 0x1000}}},
			{Regions: []topo.AddrRange{{Start: 0x1000, Size: 0x1000}}},
			{Regions: []topo.AddrRange{{Start: 0x2000, Size: 0x1000}}},
		},
	}
	tsc := Scenario{
		Name:     "paper",
		Topo:     &twin,
		Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal},
		Cycles:   500,
	}
	kc, ok := counts.CanonicalKey()
	if !ok {
		t.Fatal("count-based scenario unhashable")
	}
	kt, ok := tsc.CanonicalKey()
	if !ok {
		t.Fatal("topology scenario unhashable")
	}
	if kc != kt {
		t.Errorf("paper twins hash differently:\ncounts: %s\ntopo:   %s", kc, kt)
	}
}

// TestCanonicalKeyTopologySensitivity: every topology field a request
// can set is a simulation input and must separate keys.
func TestCanonicalKeyTopologySensitivity(t *testing.T) {
	baseTopo := func() topo.Topology {
		return topo.Topology{
			Masters: []topo.Master{{}, {}, {Default: true}},
			Slaves: []topo.Slave{
				{Regions: []topo.AddrRange{{Start: 0x0000, Size: 0x1000}}},
				{Regions: []topo.AddrRange{{Start: 0x1000, Size: 0x1000}}},
			},
		}
	}
	mkScen := func(tp topo.Topology) Scenario {
		return Scenario{Name: "t", Topo: &tp, Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal}, Cycles: 500}
	}
	bsc := mkScen(baseTopo())
	base, ok := bsc.CanonicalKey()
	if !ok {
		t.Fatal("base topology scenario unhashable")
	}
	muts := map[string]func(*topo.Topology){
		"ClockPeriodPS": func(tp *topo.Topology) { tp.ClockPeriodPS = 8000 },
		"DataWidth":     func(tp *topo.Topology) { tp.DataWidth = 16 },
		"Policy":        func(tp *topo.Topology) { tp.Policy = "rr" },
		"MasterCount":   func(tp *topo.Topology) { tp.Masters = append(tp.Masters, topo.Master{}) },
		"MasterName":    func(tp *topo.Topology) { tp.Masters[0].Name = "cpu" },
		"DefaultMaster": func(tp *topo.Topology) { tp.Masters[2].Default = false },
		"SlaveWaits":    func(tp *topo.Topology) { tp.Slaves[1].Waits = 3 },
		"SlaveName":     func(tp *topo.Topology) { tp.Slaves[0].Name = "rom" },
		"RegionStart":   func(tp *topo.Topology) { tp.Slaves[1].Regions[0].Start = 0x4000 },
		"RegionSize":    func(tp *topo.Topology) { tp.Slaves[1].Regions[0].Size = 0x2000 },
		"RegionCount": func(tp *topo.Topology) {
			tp.Slaves[1].Regions = append(tp.Slaves[1].Regions, topo.AddrRange{Start: 0x4000, Size: 0x400})
		},
		"WorkloadHints": func(tp *topo.Topology) {
			w := &topo.Workload{Seed: 1, Sequences: 2, PairsMin: 1, PairsMax: 2}
			tp.Masters[0].Workload = w
			tp.Masters[1].Workload = w
		},
	}
	for name, mut := range muts {
		tp := baseTopo()
		mut(&tp)
		sc := mkScen(tp)
		k, ok := sc.CanonicalKey()
		if !ok {
			t.Errorf("%s: mutated topology scenario unexpectedly unhashable", name)
			continue
		}
		if k == base {
			t.Errorf("%s: topology mutation did not change the canonical key", name)
		}
	}
	// Canonically equivalent spellings must collide: explicit defaults
	// and region order are normalized away before hashing.
	spelled := baseTopo()
	spelled.ClockPeriodPS = topo.DefaultClockPeriodPS
	spelled.DataWidth = topo.DefaultDataWidth
	spelled.Policy = "sticky"
	spelled.Masters[0].Name = "m0"
	sc := mkScen(spelled)
	if k, _ := sc.CanonicalKey(); k != base {
		t.Error("explicitly spelled defaults must hash like omitted defaults")
	}
}

// TestCanonicalKeyAccuracy pins the v4 cache-isolation contract: the two
// spellings of the exact class ("" and "cycle") share one key, and the
// transaction class never shares a cache entry with either.
func TestCanonicalKeyAccuracy(t *testing.T) {
	def := hashableScenario()
	base, ok := def.CanonicalKey()
	if !ok {
		t.Fatal("base scenario not hashable")
	}
	cyc := hashableScenario()
	cyc.Accuracy = AccuracyCycle
	kc, ok := cyc.CanonicalKey()
	if !ok {
		t.Fatal("cycle scenario not hashable")
	}
	if kc != base {
		t.Errorf("explicit %q accuracy changed the key: %s vs %s", AccuracyCycle, kc, base)
	}
	tr := hashableScenario()
	tr.Accuracy = AccuracyTransaction
	kt, ok := tr.CanonicalKey()
	if !ok {
		t.Fatal("transaction scenario not hashable")
	}
	if kt == base {
		t.Errorf("%q accuracy shares the cycle-accurate key %s; estimates must be cache-isolated",
			AccuracyTransaction, base)
	}
}
