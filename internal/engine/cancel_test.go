package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"ahbpower/internal/core"
	"ahbpower/internal/metrics"
)

// TestCancellationMidBatchKeepsCompletedResults cancels a multi-worker
// batch partway through: scenarios that finished before the cancellation
// must keep complete, well-formed results; everything else must carry
// exactly context.Canceled; and the result slice must stay in input order.
func TestCancellationMidBatchKeepsCompletedResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 12
	const cycles = 1500
	scs := make([]Scenario, n)
	for i := range scs {
		scs[i] = Scenario{Name: fmt.Sprintf("sc%d", i), System: core.PaperSystem(), Cycles: cycles}
	}
	// With two workers feeding jobs in order, scenario 6 starts only after
	// at least five earlier scenarios completed — so the cancel fires with
	// a mix of finished, in-flight and queued work.
	scs[6].Setup = func(*core.System) error {
		cancel()
		return nil
	}
	results := NewRunner(2).Run(ctx, scs)
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	completed, cancelled := 0, 0
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has Index %d; batch order must be preserved", i, r.Index)
		}
		switch {
		case r.Err == nil:
			completed++
			if r.Report == nil || r.Report.Cycles != cycles || r.Report.TotalEnergy <= 0 {
				t.Errorf("scenario %d finished but its report is incomplete: %+v", i, r.Report)
			}
		case errors.Is(r.Err, context.Canceled):
			cancelled++
		default:
			t.Errorf("scenario %d: unexpected error %v", i, r.Err)
		}
	}
	if completed == 0 {
		t.Error("scenarios finished before the cancellation must keep their results")
	}
	if cancelled == 0 {
		t.Error("cancellation fired mid-batch but no scenario was cancelled")
	}
}

// TestCancelledRunFlushesTraceSamples cancels a single scenario
// mid-simulation with a trace attached: the analyzer's batched sample
// buffer must still be flushed on the cancelled exit path, so the trace
// holds every settled cycle simulated up to the cancellation, not just
// full 256-sample batches.
func TestCancelledRunFlushesTraceSamples(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tr, err := metrics.NewTrace(metrics.TraceConfig{Window: 100e-9})
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Name:     "cancelled-trace",
		System:   core.PaperSystem(),
		Cycles:   500000,
		Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal, Trace: tr},
		Setup: func(sys *core.System) error {
			sys.K.Schedule(100*sys.Topo.ClockPeriod(), func() { cancel() })
			return nil
		},
	}
	res := RunOne(ctx, sc)
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", res.Err)
	}
	got := tr.Cycles()
	if got == 0 {
		t.Fatal("trace saw no cycles; buffered samples were dropped on cancellation")
	}
	// The run stops at a chunk boundary shortly after the cancel at cycle
	// ~100; far fewer than one full 256-sample batch ever accumulated, so
	// a non-empty trace proves the partial buffer was flushed. It must
	// also be nowhere near the full requested run.
	if got >= 500000/2 {
		t.Errorf("trace saw %d cycles; cancellation did not stop the run mid-flight", got)
	}
}
