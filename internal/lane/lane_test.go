package lane_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/exec"
	"ahbpower/internal/lane"
	"ahbpower/internal/sim"
	"ahbpower/internal/topo"
	"ahbpower/internal/workload"
)

// runCompiled executes the scenario through engine.RunOne on the
// compiled backend, the reference the replay checks the shim against.
func runCompiled(t *testing.T, sc engine.Scenario) engine.Result {
	t.Helper()
	sc.Backend = exec.NameCompiled
	res := engine.RunOne(context.Background(), sc)
	if res.Err != nil {
		t.Fatalf("compiled backend: %v", res.Err)
	}
	return res
}

// specOf converts a scenario into its lane spec.
func specOf(sc engine.Scenario) lane.Spec {
	return lane.Spec{
		Name:      sc.Name,
		Topo:      sc.Topology(),
		Analyzer:  sc.Analyzer,
		Workloads: sc.Workloads,
		Cycles:    sc.Cycles,
	}
}

// assertOutcome compares a pack outcome against the reference result:
// the full report, with Float64bits-identical total energy.
func assertOutcome(t *testing.T, want engine.Result, o lane.Outcome) {
	t.Helper()
	if o.Err != nil {
		t.Fatalf("pack outcome error: %v", o.Err)
	}
	if o.Report == nil {
		t.Fatal("pack outcome carries no report")
	}
	if lb, wb := math.Float64bits(o.Report.TotalEnergy), math.Float64bits(want.Report.TotalEnergy); lb != wb {
		t.Errorf("TotalEnergy bits: pack=%#x (%g) compiled=%#x (%g)",
			lb, o.Report.TotalEnergy, wb, want.Report.TotalEnergy)
	}
	if !reflect.DeepEqual(o.Report, want.Report) {
		t.Errorf("Report diverges:\npack:     %+v\ncompiled: %+v", o.Report, want.Report)
	}
}

// runLaneSingle packs one scenario alone and returns its outcome.
func runLaneSingle(t *testing.T, sc engine.Scenario) lane.Outcome {
	t.Helper()
	p, err := lane.BuildPack([]lane.Spec{specOf(sc)})
	if err != nil {
		t.Fatalf("BuildPack: %v", err)
	}
	return p.Run(context.Background())[0]
}

// TestLaneGoldenEquivalence pairs single-spec packs against compiled
// RunOne across bus shapes, policies, analyzer styles, wait states, data
// widths and an odd clock period: the check benchmark/replay.go makes.
func TestLaneGoldenEquivalence(t *testing.T) {
	type variant struct {
		name string
		sys  core.SystemConfig
		an   core.AnalyzerConfig
	}
	base := core.PaperSystem()
	variants := []variant{
		{name: "paper_sticky_global", sys: base,
			an: core.AnalyzerConfig{Style: core.StyleGlobal}},
		{name: "paper_sticky_local", sys: base,
			an: core.AnalyzerConfig{Style: core.StyleLocal}},
	}
	fixed := base
	fixed.Policy = ahb.PolicyFixed
	variants = append(variants, variant{name: "fixed_global", sys: fixed,
		an: core.AnalyzerConfig{Style: core.StyleGlobal}})
	rr := base
	rr.Policy = ahb.PolicyRoundRobin
	rr.NumActiveMasters = 3
	variants = append(variants, variant{name: "rr_3masters", sys: rr,
		an: core.AnalyzerConfig{Style: core.StyleGlobal}})
	waits := base
	waits.SlaveWaits = 2
	variants = append(variants, variant{name: "waits2_local", sys: waits,
		an: core.AnalyzerConfig{Style: core.StyleLocal}})
	wide := base
	wide.DataWidth = 16
	wide.NumSlaves = 4
	variants = append(variants, variant{name: "w16_4slaves", sys: wide,
		an: core.AnalyzerConfig{Style: core.StyleGlobal}})
	odd := base
	odd.ClockPeriod = 10_001 * sim.Picosecond
	variants = append(variants, variant{name: "odd_period_trace", sys: odd,
		an: core.AnalyzerConfig{Style: core.StyleGlobal}})
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			sc := engine.Scenario{Name: v.name, System: v.sys, Analyzer: v.an, Cycles: 3000}
			assertOutcome(t, runCompiled(t, sc), runLaneSingle(t, sc))
		})
	}
}

// TestLaneGoldenWorkloads pairs packs and compiled RunOne across
// workload patterns and explicit per-master traffic.
func TestLaneGoldenWorkloads(t *testing.T) {
	for _, p := range []workload.Pattern{workload.PatternRandom, workload.PatternLowActivity, workload.PatternCounter} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			sc := engine.Scenario{
				Name:     "wl",
				System:   core.PaperSystem(),
				Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal},
				Workloads: []workload.Config{{
					Seed: 17, NumSequences: 40, PairsMin: 1, PairsMax: 6,
					IdleMin: 0, IdleMax: 8, AddrSize: 0x3000,
					Pattern: p, BurstBeats: 4,
				}},
				Cycles: 2500,
			}
			assertOutcome(t, runCompiled(t, sc), runLaneSingle(t, sc))
		})
	}
}

// TestLaneGoldenTopology pairs a pack and compiled RunOne on an explicit
// declarative topology with non-uniform regions and mixed wait states.
func TestLaneGoldenTopology(t *testing.T) {
	tp := &topo.Topology{
		Name:   "mixed-map",
		Policy: "rr",
		Masters: []topo.Master{
			{Name: "cpu"}, {Name: "dma"}, {Name: "park", Default: true},
		},
		Slaves: []topo.Slave{
			{Name: "rom", Regions: []topo.AddrRange{{Start: 0x0000, Size: 0x0800}}},
			{Name: "ram", Waits: 1, Regions: []topo.AddrRange{
				{Start: 0x0800, Size: 0x0400},
				{Start: 0x2000, Size: 0x1000},
			}},
			{Name: "io", Waits: 3, Regions: []topo.AddrRange{{Start: 0x1000, Size: 0x0c00}}},
		},
	}
	sc := engine.Scenario{
		Name:     "mixed-map",
		Topo:     tp,
		Analyzer: core.AnalyzerConfig{Style: core.StyleLocal},
		Workloads: []workload.Config{
			{Seed: 3, NumSequences: 30, PairsMin: 1, PairsMax: 5, IdleMax: 6, AddrBase: 0, AddrSize: 0x3000},
			{Seed: 4, NumSequences: 30, PairsMin: 1, PairsMax: 5, IdleMax: 6, AddrBase: 0, AddrSize: 0x3000},
		},
		Cycles: 2000,
	}
	assertOutcome(t, runCompiled(t, sc), runLaneSingle(t, sc))
}

// TestLaneFullPack packs 64 scenarios differing in workload seed and run
// length, the size of the benchmark's seeds batch, and checks every
// outcome against its own compiled run, in spec order.
func TestLaneFullPack(t *testing.T) {
	specs := make([]lane.Spec, 64)
	want := make([]engine.Result, len(specs))
	for i := range specs {
		sc := engine.Scenario{
			Name:     "lane",
			System:   core.PaperSystem(),
			Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal},
			Workloads: []workload.Config{{
				Seed: int64(100 + i), NumSequences: 20, PairsMin: 1, PairsMax: 4,
				IdleMax: 5, AddrSize: 0x3000,
			}},
			Cycles: uint64(600 + 13*i),
		}
		specs[i] = specOf(sc)
		want[i] = runCompiled(t, sc)
	}
	p, err := lane.BuildPack(specs)
	if err != nil {
		t.Fatalf("BuildPack: %v", err)
	}
	outs := p.Run(context.Background())
	for i := range outs {
		i := i
		if !t.Run("lane", func(t *testing.T) { assertOutcome(t, want[i], outs[i]) }) {
			break // one diverging lane is enough output
		}
	}
}

// TestPackCancellation cancels a pack mid-run: a scenario that finished
// keeps its result, an unfinished one surfaces the context error.
func TestPackCancellation(t *testing.T) {
	short := engine.Scenario{Name: "short", System: core.PaperSystem(),
		Analyzer:  core.AnalyzerConfig{Style: core.StyleGlobal},
		Workloads: []workload.Config{{Seed: 1, NumSequences: 10, PairsMin: 1, PairsMax: 3, AddrSize: 0x3000}},
		Cycles:    100}
	long := short
	long.Name = "long"
	long.Cycles = 1 << 40 // would run effectively forever
	p, err := lane.BuildPack([]lane.Spec{specOf(short), specOf(long)})
	if err != nil {
		t.Fatalf("BuildPack: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { cancel() }()
	outs := p.Run(ctx)
	// The cancellation goroutine may fire at any point; the short scenario
	// either completed or was cancelled, but the long one can never
	// complete.
	if outs[1].Err == nil {
		t.Fatal("long scenario completed despite cancellation")
	}
	if outs[0].Err == nil {
		assertOutcome(t, runCompiled(t, short), outs[0])
	}
}
