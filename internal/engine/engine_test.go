package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
)

// testScenarios builds a small mixed batch exercising several grid axes.
func testScenarios(cycles uint64) []Scenario {
	g := Grid{
		Base:     core.PaperSystem(),
		Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal},
		Cycles:   cycles,
		Slaves:   []int{2, 3},
		Widths:   []int{16, 32},
		Policies: []ahb.ArbPolicy{ahb.PolicySticky, ahb.PolicyRoundRobin},
	}
	return g.Scenarios()
}

// renderBatch renders a batch of results to one canonical string, the way
// a sweep report would.
func renderBatch(t *testing.T, results []Result) string {
	t.Helper()
	var b strings.Builder
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("scenario %q failed: %v", r.Scenario.Name, r.Err)
		}
		b.WriteString(r.Scenario.Name)
		b.WriteString("\n")
		b.WriteString(r.Report.FormatTable())
		b.WriteString(r.Report.FormatBreakdown())
		b.WriteString(r.Report.FormatSummary())
		b.WriteString("\n")
	}
	return b.String()
}

func TestParallelMatchesSerialByteForByte(t *testing.T) {
	scs := testScenarios(1500)
	serial := NewRunner(1).Run(context.Background(), scs)
	parallel := NewRunner(4).Run(context.Background(), scs)
	if len(serial) != len(scs) || len(parallel) != len(scs) {
		t.Fatalf("result counts: serial=%d parallel=%d, want %d", len(serial), len(parallel), len(scs))
	}
	s, p := renderBatch(t, serial), renderBatch(t, parallel)
	if s != p {
		t.Errorf("parallel sweep diverges from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}
	for i, r := range parallel {
		if r.Index != i {
			t.Errorf("result %d carries index %d: ordering must be deterministic", i, r.Index)
		}
	}
}

func TestScenarioErrorDoesNotKillSweep(t *testing.T) {
	good := core.PaperSystem()
	bad := core.PaperSystem()
	bad.NumActiveMasters = 0 // invalid: construction must fail
	scs := []Scenario{
		{Name: "ok-a", System: good, Cycles: 500},
		{Name: "broken", System: bad, Cycles: 500},
		{Name: "no-cycles", System: good, Cycles: 0},
		{Name: "ok-b", System: good, Cycles: 500},
	}
	results := NewRunner(2).Run(context.Background(), scs)
	if results[0].Err != nil || results[0].Report == nil {
		t.Errorf("ok-a must succeed: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Error("broken scenario must report its error")
	}
	if results[2].Err == nil {
		t.Error("zero-cycle scenario must report its error")
	}
	if results[3].Err != nil || results[3].Report == nil {
		t.Errorf("ok-b must succeed despite earlier failures: %v", results[3].Err)
	}
}

func TestPanicCapturedAsError(t *testing.T) {
	sc := Scenario{
		Name:   "panics",
		System: core.PaperSystem(),
		Cycles: 100,
		Setup:  func(*core.System) error { panic("boom") },
	}
	res := RunOne(context.Background(), sc)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "panicked") {
		t.Fatalf("panic must surface as an error, got %v", res.Err)
	}
}

func TestCancellationAbandonsQueuedScenarios(t *testing.T) {
	// One worker, several scenarios, cancel while the first is being set
	// up: the in-flight scenario must stop mid-run (RunContext) and the
	// queued remainder must come back promptly with the context error.
	ctx, cancel := context.WithCancel(context.Background())
	scs := make([]Scenario, 6)
	for i := range scs {
		scs[i] = Scenario{Name: "sc", System: core.PaperSystem(), Cycles: 2000}
	}
	scs[0].Setup = func(*core.System) error {
		cancel() // fires while scenario 0 is running
		return nil
	}
	start := time.Now()
	results := NewRunner(1).Run(ctx, scs)
	elapsed := time.Since(start)
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Errorf("in-flight scenario must be cancelled mid-run, got %v", results[0].Err)
	}
	abandoned := 0
	for _, r := range results[1:] {
		if r.Err == context.Canceled {
			abandoned++
		}
	}
	if abandoned == 0 {
		t.Error("cancellation must abandon queued scenarios with ctx.Err()")
	}
	// Generous bound: abandoning must not simulate the remaining scenarios.
	if elapsed > 30*time.Second {
		t.Errorf("cancellation took %v; queued scenarios were not abandoned promptly", elapsed)
	}
}

func TestCancellationStopsSingleScenarioMidRun(t *testing.T) {
	// A single long scenario cancelled from inside the simulation (a
	// kernel event stands in for Ctrl-C) must stop near the cancellation
	// point instead of running its full cycle count.
	ctx, cancel := context.WithCancel(context.Background())
	const cycles = 500000
	var reached uint64
	sc := Scenario{
		Name:   "long",
		System: core.PaperSystem(),
		Cycles: cycles,
		Setup: func(sys *core.System) error {
			sys.K.Schedule(100*sys.Topo.ClockPeriod(), func() { cancel() })
			sys.Bus.OnCycle(func(ahb.CycleInfo) { reached++ })
			return nil
		},
	}
	res := RunOne(ctx, sc)
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", res.Err)
	}
	if reached == 0 || reached >= cycles/2 {
		t.Errorf("simulated %d cycles of %d; cancellation did not stop the run mid-flight", reached, cycles)
	}
}

func TestCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := Run(ctx, testScenarios(500))
	for _, r := range results {
		if r.Err != context.Canceled {
			t.Fatalf("scenario %q: err=%v, want context.Canceled", r.Scenario.Name, r.Err)
		}
	}
}

func TestRunMeteredAggregatesBatchMetrics(t *testing.T) {
	good := core.PaperSystem()
	bad := core.PaperSystem()
	bad.NumActiveMasters = 0
	scs := []Scenario{
		{Name: "a", System: good, Cycles: 800},
		{Name: "broken", System: bad, Cycles: 800},
		{Name: "b", System: good, Cycles: 1200},
	}
	results, batch := NewRunner(2).RunMetered(context.Background(), scs)
	if batch.Scenarios != 3 || batch.Failed != 1 {
		t.Errorf("scenarios=%d failed=%d, want 3/1", batch.Scenarios, batch.Failed)
	}
	if batch.Workers != 2 {
		t.Errorf("workers=%d, want 2", batch.Workers)
	}
	if batch.TotalCycles != 2000 {
		t.Errorf("cycles=%d, want 2000 (failed scenario excluded)", batch.TotalCycles)
	}
	if batch.Wall <= 0 || batch.CyclesPerSec <= 0 {
		t.Errorf("wall=%v throughput=%v, want positive", batch.Wall, batch.CyclesPerSec)
	}
	if batch.Utilization < 0 || batch.Utilization > 1 {
		t.Errorf("utilization=%v outside [0,1]", batch.Utilization)
	}
	if batch.Latency.N != 2 {
		t.Errorf("latency over %d scenarios, want 2", batch.Latency.N)
	}
	// Per-result metrics must be filled for successful scenarios.
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		if r.Metrics.Cycles != r.Scenario.Cycles {
			t.Errorf("%s: metrics cycles=%d, want %d", r.Scenario.Name, r.Metrics.Cycles, r.Scenario.Cycles)
		}
		if r.Metrics.DeltaCycles == 0 || r.Metrics.Run <= 0 || r.Metrics.CyclesPerSec <= 0 {
			t.Errorf("%s: incomplete run metrics %+v", r.Scenario.Name, r.Metrics)
		}
	}
}

func TestGridExpansion(t *testing.T) {
	g := Grid{
		Base:   core.PaperSystem(),
		Cycles: 100,
		Slaves: []int{2, 3, 8},
		Widths: []int{16, 32},
	}
	scs := g.Scenarios()
	if len(scs) != 6 {
		t.Fatalf("grid expanded to %d scenarios, want 6", len(scs))
	}
	if scs[0].Name != "s2_w16_ws0_sticky" {
		t.Errorf("first scenario name %q", scs[0].Name)
	}
	// Empty axes inherit the base configuration.
	for _, sc := range scs {
		if sc.System.SlaveWaits != g.Base.SlaveWaits || sc.System.Policy != g.Base.Policy {
			t.Errorf("scenario %q must inherit base waits/policy", sc.Name)
		}
	}
}

// TestStyleParity is the analyzer-style parity check: all three
// integration styles of the paper's Fig. 1, run through the observer
// layer on the identical paper workload, must agree on the relative
// per-instruction energy ordering even though absolute energies differ.
func TestStyleParity(t *testing.T) {
	const cycles = 4000
	styles := []core.Style{core.StyleGlobal, core.StyleLocal, core.StylePrivate}
	scs := make([]Scenario, len(styles))
	for i, st := range styles {
		scs[i] = Scenario{
			Name:     st.String(),
			System:   core.PaperSystem(),
			Analyzer: core.AnalyzerConfig{Style: st},
			Cycles:   cycles,
		}
	}
	results := NewRunner(len(scs)).Run(context.Background(), scs)
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	// The executed instruction streams must be identical: the analyzer
	// observes and must never perturb behavior.
	ordering := func(r Result) []string {
		var names []string
		for _, st := range r.Stats {
			if st.Count >= 50 { // rare instructions can tie-swap on noise
				names = append(names, st.Instruction.String())
			}
		}
		return names
	}
	counts := func(r Result) map[string]uint64 {
		m := map[string]uint64{}
		for _, st := range r.Stats {
			m[st.Instruction.String()] = st.Count
		}
		return m
	}
	ref, refCounts := ordering(results[0]), counts(results[0])
	for _, r := range results[1:] {
		got := ordering(r)
		if len(got) != len(ref) {
			t.Fatalf("style %s: instruction set %v, global saw %v", r.Scenario.Name, got, ref)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("style %s: energy ordering %v, global saw %v", r.Scenario.Name, got, ref)
				break
			}
		}
		for in, n := range counts(r) {
			if refCounts[in] != n {
				t.Errorf("style %s: instruction %s executed %d times, global saw %d — observation must not perturb behavior",
					r.Scenario.Name, in, n, refCounts[in])
			}
		}
	}
}
