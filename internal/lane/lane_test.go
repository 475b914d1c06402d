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
	"ahbpower/internal/metrics"
	"ahbpower/internal/sim"
	"ahbpower/internal/topo"
	"ahbpower/internal/workload"
)

// runEvent executes the scenario on the event backend (the reference
// semantics) and returns its result.
func runEvent(t *testing.T, sc engine.Scenario) engine.Result {
	t.Helper()
	sc.Backend = exec.NameEvent
	res := engine.RunOne(context.Background(), sc)
	if res.Err != nil {
		t.Fatalf("event backend: %v", res.Err)
	}
	return res
}

// specOf converts a scenario into its lane spec.
func specOf(sc engine.Scenario) lane.Spec {
	return lane.Spec{
		Name:         sc.Name,
		Topo:         sc.Topology(),
		Analyzer:     sc.Analyzer,
		Workloads:    sc.Workloads,
		Cycles:       sc.Cycles,
		SkipAnalyzer: sc.SkipAnalyzer,
	}
}

// assertOutcome compares a lane outcome against the event result
// bit-for-bit: beats, monitor counters, violations, instruction stats and
// the full report including Float64bits-identical energies.
func assertOutcome(t *testing.T, ev engine.Result, o lane.Outcome) {
	t.Helper()
	if o.Err != nil {
		t.Fatalf("lane outcome error: %v", o.Err)
	}
	if o.Cycles != ev.Scenario.Cycles {
		t.Errorf("Cycles: lane=%d want=%d", o.Cycles, ev.Scenario.Cycles)
	}
	if o.Beats != ev.Beats {
		t.Errorf("Beats: lane=%d event=%d", o.Beats, ev.Beats)
	}
	if !reflect.DeepEqual(o.Counts, ev.Counts) {
		t.Errorf("Counts diverge:\nlane:  %v\nevent: %v", o.Counts, ev.Counts)
	}
	if !reflect.DeepEqual(o.Violations, ev.Violations) {
		t.Errorf("Violations diverge:\nlane:  %v\nevent: %v", o.Violations, ev.Violations)
	}
	if !reflect.DeepEqual(o.Stats, ev.Stats) {
		t.Errorf("instruction Stats diverge:\nlane:  %+v\nevent: %+v", o.Stats, ev.Stats)
	}
	if (o.Report == nil) != (ev.Report == nil) {
		t.Fatalf("Report presence: lane=%v event=%v", o.Report != nil, ev.Report != nil)
	}
	if o.Report == nil {
		return
	}
	if lb, eb := math.Float64bits(o.Report.TotalEnergy), math.Float64bits(ev.Report.TotalEnergy); lb != eb {
		t.Errorf("TotalEnergy bits: lane=%#x (%g) event=%#x (%g)",
			lb, o.Report.TotalEnergy, eb, ev.Report.TotalEnergy)
	}
	if !reflect.DeepEqual(o.Report, ev.Report) {
		t.Errorf("Report diverges:\nlane:  %+v\nevent: %+v", o.Report, ev.Report)
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

// TestLaneGoldenEquivalence pairs single-lane packs against the event
// backend across bus shapes, policies, analyzer styles, wait states, data
// widths and an odd clock period.
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
			assertOutcome(t, runEvent(t, sc), runLaneSingle(t, sc))
		})
	}
}

// TestLaneGoldenWorkloads pairs the backends across workload patterns and
// explicit per-master traffic.
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
			assertOutcome(t, runEvent(t, sc), runLaneSingle(t, sc))
		})
	}
}

// TestLaneGoldenTopology pairs the backends on an explicit declarative
// topology with non-uniform regions (a non-power-of-two range exercises
// the decoder's general comparator path) and mixed wait states.
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
	assertOutcome(t, runEvent(t, sc), runLaneSingle(t, sc))
}

// TestLaneSkipAnalyzer checks the uninstrumented path: no report, but
// functional results still match the event backend.
func TestLaneSkipAnalyzer(t *testing.T) {
	sc := engine.Scenario{Name: "bare", System: core.PaperSystem(), Cycles: 1500, SkipAnalyzer: true}
	o := runLaneSingle(t, sc)
	assertOutcome(t, runEvent(t, sc), o)
	if o.Report != nil || o.Stats != nil {
		t.Fatalf("SkipAnalyzer outcome carries analysis: report=%v stats=%v", o.Report, o.Stats)
	}
}

// TestLaneFullPack packs 64 scenarios differing in workload seed and run
// length into one execution and checks every lane against its own event
// run — the scatter contract at full occupancy with staggered retirement.
func TestLaneFullPack(t *testing.T) {
	specs := make([]lane.Spec, lane.MaxLanes)
	evs := make([]engine.Result, lane.MaxLanes)
	for i := range specs {
		sc := engine.Scenario{
			Name:     "lane",
			System:   core.PaperSystem(),
			Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal},
			Workloads: []workload.Config{{
				Seed: int64(100 + i), NumSequences: 20, PairsMin: 1, PairsMax: 4,
				IdleMax: 5, AddrSize: 0x3000,
			}},
			Cycles: uint64(600 + 13*i), // staggered retirement
		}
		specs[i] = specOf(sc)
		evs[i] = runEvent(t, sc)
	}
	p, err := lane.BuildPack(specs)
	if err != nil {
		t.Fatalf("BuildPack: %v", err)
	}
	if p.Lanes() != lane.MaxLanes {
		t.Fatalf("Lanes() = %d, want %d", p.Lanes(), lane.MaxLanes)
	}
	outs := p.Run(context.Background())
	for i := range outs {
		i := i
		if !t.Run("lane", func(t *testing.T) { assertOutcome(t, evs[i], outs[i]) }) {
			break // one diverging lane is enough output
		}
	}
}

// TestPackKeyMismatch checks that structurally different scenarios cannot
// share a pack.
func TestPackKeyMismatch(t *testing.T) {
	a := engine.Scenario{Name: "a", System: core.PaperSystem(), Cycles: 100}
	bSys := core.PaperSystem()
	bSys.NumSlaves = 4
	b := engine.Scenario{Name: "b", System: bSys, Cycles: 100}
	if _, err := lane.BuildPack([]lane.Spec{specOf(a), specOf(b)}); err == nil {
		t.Fatal("BuildPack accepted mixed structural keys")
	}
}

// TestPackCancellation cancels a pack mid-run: lanes already retired keep
// their results, unfinished lanes surface the context error with their
// progress.
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
	// The cancellation goroutine may fire at any chunk boundary; the short
	// lane either completed or was cancelled, but the long lane can never
	// complete.
	if outs[1].Err == nil {
		t.Fatal("long lane completed despite cancellation")
	}
	if outs[0].Err == nil {
		ev := runEvent(t, short)
		assertOutcome(t, ev, outs[0])
	}
}

// TestLaneTraitsUnsupported enumerates the reasons the capability table
// gives for keeping a scenario out of a lane pack.
func TestLaneTraitsUnsupported(t *testing.T) {
	cases := []struct {
		name string
		fs   exec.Feature
		want string
	}{
		{"ok", 0, ""},
		{"setup", exec.FeatureSetup, "custom Setup hook"},
		{"timeout", exec.FeatureTimeout, "per-scenario timeout"},
		{"faults", exec.FeatureActiveFaults, "active fault-injection plan"},
		{"dpm", exec.AnalyzerFeatures(core.AnalyzerConfig{DPM: &core.DPMConfig{}}), "DPM estimator attached"},
		{"private", exec.AnalyzerFeatures(core.AnalyzerConfig{Style: core.StylePrivate}), "delta-level (private-style) instrumentation"},
		{"trace", exec.AnalyzerFeatures(core.AnalyzerConfig{Trace: new(metrics.Trace)}), "streaming trace recorder attached"},
		{"checkpoint", exec.FeatureCheckpoint, "checkpointing requested"},
	}
	for _, tc := range cases {
		if got := exec.Blocker(tc.fs, exec.PathLanes); got != tc.want {
			t.Errorf("%s: Blocker(lanes) = %q, want %q", tc.name, got, tc.want)
		}
	}
}
