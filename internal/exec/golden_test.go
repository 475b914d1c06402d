package exec_test

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/exec"
	"ahbpower/internal/fault"
	"ahbpower/internal/metrics"
	"ahbpower/internal/probe"
	"ahbpower/internal/sim"
	"ahbpower/internal/workload"
)

// runPair executes the same scenario on the event and compiled backends
// and returns both results. With traced set, each run gets its own
// per-block trace recorder. It fails the test when either run errors or
// when the compiled request fell back.
func runPair(t *testing.T, sc engine.Scenario, traced bool) (ev, cp engine.Result) {
	t.Helper()
	run := func(backend string) engine.Result {
		sc.Backend = backend
		if traced {
			tr, err := metrics.NewTrace(metrics.TraceConfig{Window: 1e-7, PerBlock: true})
			if err != nil {
				t.Fatal(err)
			}
			sc.Analyzer.Trace = tr
		}
		return engine.RunOne(context.Background(), sc)
	}
	ev = run(exec.NameEvent)
	if ev.Err != nil {
		t.Fatalf("event backend: %v", ev.Err)
	}
	cp = run(exec.NameCompiled)
	if cp.Err != nil {
		t.Fatalf("compiled backend: %v", cp.Err)
	}
	if cp.Backend != exec.NameCompiled {
		t.Fatalf("compiled run reported backend %q (fallback: %q)", cp.Backend, cp.BackendFallback)
	}
	if ev.Backend != exec.NameEvent {
		t.Fatalf("event run reported backend %q", ev.Backend)
	}
	return ev, cp
}

// assertIdentical compares every deterministic output of two results
// bit-for-bit. Metrics (wall-clock, delta counts) are deliberately
// excluded: they are envelope data, outside the byte-identity guarantee.
func assertIdentical(t *testing.T, ev, cp engine.Result) {
	t.Helper()
	if ev.Beats != cp.Beats {
		t.Errorf("Beats: event=%d compiled=%d", ev.Beats, cp.Beats)
	}
	if !reflect.DeepEqual(ev.Counts, cp.Counts) {
		t.Errorf("Counts diverge:\nevent:    %v\ncompiled: %v", ev.Counts, cp.Counts)
	}
	if !reflect.DeepEqual(ev.Violations, cp.Violations) {
		t.Errorf("Violations diverge:\nevent:    %v\ncompiled: %v", ev.Violations, cp.Violations)
	}
	if !reflect.DeepEqual(ev.Faults, cp.Faults) {
		t.Errorf("Faults diverge:\nevent:    %+v\ncompiled: %+v", ev.Faults, cp.Faults)
	}
	if !reflect.DeepEqual(ev.Stats, cp.Stats) {
		t.Errorf("instruction Stats diverge")
	}
	if !reflect.DeepEqual(ev.DPM, cp.DPM) {
		t.Errorf("DPM diverges:\nevent:    %+v\ncompiled: %+v", ev.DPM, cp.DPM)
	}
	if tr := ev.Scenario.Analyzer.Trace; tr != nil {
		ew, cw := tr.Windows(), cp.Scenario.Analyzer.Trace.Windows()
		if len(ew) == 0 || !reflect.DeepEqual(ew, cw) {
			t.Errorf("trace windows empty or diverging:\nevent:    %+v\ncompiled: %+v", ew, cw)
		}
	}
	if (ev.Report == nil) != (cp.Report == nil) {
		t.Fatalf("Report presence: event=%v compiled=%v", ev.Report != nil, cp.Report != nil)
	}
	if ev.Report == nil {
		return
	}
	// Bit-exact energy first (the headline guarantee), then the full
	// report. DeepEqual on float64 is equality, which identical bit
	// patterns satisfy; energies are never NaN.
	if eb, cb := math.Float64bits(ev.Report.TotalEnergy), math.Float64bits(cp.Report.TotalEnergy); eb != cb {
		t.Errorf("TotalEnergy bits: event=%#x (%g) compiled=%#x (%g)",
			eb, ev.Report.TotalEnergy, cb, cp.Report.TotalEnergy)
	}
	if !reflect.DeepEqual(ev.Report, cp.Report) {
		t.Errorf("Report diverges:\nevent:    %+v\ncompiled: %+v", ev.Report, cp.Report)
	}
}

// TestGoldenEquivalence runs paired event/compiled scenarios across bus
// shapes, arbitration policies, analyzer styles, wait states, data widths,
// clock periods, DPM estimators, fault plans and trace recorders, asserting
// bit-identical results.
func TestGoldenEquivalence(t *testing.T) {
	type variant struct {
		name   string
		sys    core.SystemConfig
		an     core.AnalyzerConfig
		faults *fault.Plan
		traced bool
	}
	base := core.PaperSystem()
	variants := []variant{
		{name: "paper_sticky_global", sys: base,
			an: core.AnalyzerConfig{Style: core.StyleGlobal}, traced: true},
		{name: "paper_sticky_local", sys: base,
			an: core.AnalyzerConfig{Style: core.StyleLocal}, traced: true},
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
		an: core.AnalyzerConfig{Style: core.StyleGlobal, RecordActivity: true}})
	// An odd period: the windowed trace checks cycle timestamps too.
	odd := base
	odd.ClockPeriod = 10_001 * sim.Picosecond
	variants = append(variants, variant{name: "odd_period_trace", sys: odd,
		an: core.AnalyzerConfig{Style: core.StyleGlobal}, traced: true})
	variants = append(variants, variant{name: "dpm_local", sys: base,
		an: core.AnalyzerConfig{Style: core.StyleLocal, DPM: &core.DPMConfig{IdleThreshold: 4, WakeEnergy: 1e-12}}})
	// Fault plans exercise the injector processes (slave response
	// rewrites, split masking, master drive corruption) under both
	// execution models.
	faulty := base
	variants = append(variants,
		variant{name: "faults_mixed", sys: faulty,
			an: core.AnalyzerConfig{Style: core.StyleGlobal},
			faults: &fault.Plan{Seed: 99, Rules: []fault.Rule{
				{Kind: fault.KindError, Slave: -1, Master: -1, Prob: 0.02},
				{Kind: fault.KindRetry, Slave: 0, Master: -1, Prob: 0.05, Retries: 2},
				{Kind: fault.KindWaits, Slave: 1, Master: -1, Prob: 0.1, Waits: 3},
				{Kind: fault.KindDataFlip, Slave: -1, Master: 0, Prob: 0.05, Mask: 0xA5},
			}}},
		variant{name: "faults_split", sys: faulty,
			an: core.AnalyzerConfig{Style: core.StyleLocal},
			faults: &fault.Plan{Seed: 7, Rules: []fault.Rule{
				{Kind: fault.KindSplit, Slave: -1, Master: -1, Prob: 0.08, Hold: 6},
				{Kind: fault.KindAddrFlip, Slave: -1, Master: 1, Prob: 0.03, Mask: 0x3C},
			}}},
	)
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			sc := engine.Scenario{
				Name:     v.name,
				System:   v.sys,
				Analyzer: v.an,
				Cycles:   3000,
				Faults:   v.faults,
			}
			ev, cp := runPair(t, sc, v.traced)
			assertIdentical(t, ev, cp)
		})
	}
}

// TestGoldenEquivalenceWorkloads pairs the backends across workload
// patterns and explicit per-master traffic.
func TestGoldenEquivalenceWorkloads(t *testing.T) {
	for _, p := range []workload.Pattern{workload.PatternRandom, workload.PatternLowActivity, workload.PatternCounter} {
		p := p
		t.Run(patternName(p), func(t *testing.T) {
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
			ev, cp := runPair(t, sc, false)
			assertIdentical(t, ev, cp)
		})
	}
}

func patternName(p workload.Pattern) string {
	switch p {
	case workload.PatternLowActivity:
		return "low_activity"
	case workload.PatternCounter:
		return "counter"
	}
	return "random"
}

// TestBackendFallback checks that every unsupported feature falls back to
// the event backend with its reason surfaced, rather than failing.
func TestBackendFallback(t *testing.T) {
	base := func() engine.Scenario {
		return engine.Scenario{
			Name:     "fb",
			System:   core.PaperSystem(),
			Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal},
			Cycles:   200,
			Backend:  exec.NameCompiled,
		}
	}
	cases := []struct {
		name   string
		mutate func(*engine.Scenario)
		reason string
	}{
		{"setup_hook", func(sc *engine.Scenario) {
			sc.Setup = func(*core.System) error { return nil }
		}, "Setup"},
		{"private_style", func(sc *engine.Scenario) {
			sc.Analyzer.Style = core.StylePrivate
		}, "delta-level"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sc := base()
			tc.mutate(&sc)
			res := engine.RunOne(context.Background(), sc)
			if res.Err != nil {
				t.Fatalf("run: %v", res.Err)
			}
			if res.Backend != exec.NameEvent {
				t.Fatalf("backend = %q, want fallback to %q", res.Backend, exec.NameEvent)
			}
			if !strings.Contains(res.BackendFallback, tc.reason) {
				t.Fatalf("fallback reason %q does not mention %q", res.BackendFallback, tc.reason)
			}
		})
	}
	// SkipAnalyzer neutralizes analyzer-derived fallbacks: a private-style
	// config without an attached analyzer is fully supported.
	sc := base()
	sc.Analyzer.Style = core.StylePrivate
	sc.SkipAnalyzer = true
	res := engine.RunOne(context.Background(), sc)
	if res.Err != nil || res.Backend != exec.NameCompiled || res.BackendFallback != "" {
		t.Fatalf("SkipAnalyzer run: backend=%q fallback=%q err=%v", res.Backend, res.BackendFallback, res.Err)
	}
}

// TestUnknownBackendRejected checks hint validation on the engine path.
func TestUnknownBackendRejected(t *testing.T) {
	res := engine.RunOne(context.Background(), engine.Scenario{
		Name: "bad", System: core.PaperSystem(), Cycles: 10, Backend: "turbo",
	})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "unknown backend") {
		t.Fatalf("engine err = %v, want unknown-backend error", res.Err)
	}
	for _, ok := range []string{"", exec.NameEvent, exec.NameCompiled, exec.NameAuto} {
		if !exec.ValidName(ok) {
			t.Errorf("ValidName(%q) = false", ok)
		}
	}
	if exec.ValidName("turbo") {
		t.Error("ValidName accepted unknown backend")
	}
}

// TestCancellationParity cancels identical runs mid-flight on both
// backends and checks they stop at the same cycle-slice boundary with
// identical partial state. Cancellation is triggered from a settled-cycle
// observer, so it fires at the exact same simulated cycle under both
// execution models; the run then stops at the next chunk boundary.
func TestCancellationParity(t *testing.T) {
	const cancelAt = 700
	run := func(b exec.Backend) (cycles uint64, energy float64) {
		sys, err := core.NewSystem(core.PaperSystem())
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadPaperWorkload(5000); err != nil {
			t.Fatal(err)
		}
		an, err := core.Attach(sys, core.AnalyzerConfig{Style: core.StyleGlobal})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sys.Bus.Observe(probe.Func[ahb.CycleInfo](func(ci ahb.CycleInfo) {
			if ci.Cycle == cancelAt {
				cancel()
			}
		}))
		err = b.Run(ctx, sys, 5000)
		if err != context.Canceled {
			t.Fatalf("%s: err = %v, want context.Canceled", b.Name(), err)
		}
		return sys.Bus.Cycles(), an.Report().TotalEnergy
	}
	evCycles, evEnergy := run(exec.Event())
	cpCycles, cpEnergy := run(exec.Compiled())
	if evCycles != cpCycles {
		t.Fatalf("stopped at different cycles: event=%d compiled=%d", evCycles, cpCycles)
	}
	if evCycles <= cancelAt || evCycles >= 5000 {
		t.Fatalf("expected a mid-run stop after cycle %d, got %d", cancelAt, evCycles)
	}
	if math.Float64bits(evEnergy) != math.Float64bits(cpEnergy) {
		t.Fatalf("partial energies diverge: event=%g compiled=%g", evEnergy, cpEnergy)
	}
}

// TestCompiledResumable checks that the compiled backend can be invoked
// repeatedly on one system (the chunked-run contract) with results
// identical to a single event-backend run of the total length.
func TestCompiledResumable(t *testing.T) {
	build := func() (*core.System, *core.Analyzer) {
		sys, err := core.NewSystem(core.PaperSystem())
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadPaperWorkload(2000); err != nil {
			t.Fatal(err)
		}
		an, err := core.Attach(sys, core.AnalyzerConfig{Style: core.StyleGlobal})
		if err != nil {
			t.Fatal(err)
		}
		return sys, an
	}
	evSys, evAn := build()
	if err := exec.Event().Run(context.Background(), evSys, 2000); err != nil {
		t.Fatal(err)
	}
	cpSys, cpAn := build()
	cp := exec.Compiled()
	for _, slice := range []uint64{1, 511, 512, 513, 463} {
		if err := cp.Run(context.Background(), cpSys, slice); err != nil {
			t.Fatal(err)
		}
	}
	if g, w := cpSys.Bus.Cycles(), evSys.Bus.Cycles(); g != w {
		t.Fatalf("cycles: compiled=%d event=%d", g, w)
	}
	ee, ce := evAn.Report().TotalEnergy, cpAn.Report().TotalEnergy
	if math.Float64bits(ee) != math.Float64bits(ce) {
		t.Fatalf("energies diverge: event=%g compiled=%g", ee, ce)
	}
}
