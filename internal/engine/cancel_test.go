package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ahbpower/internal/core"
	"ahbpower/internal/exec"
	"ahbpower/internal/metrics"
	"ahbpower/internal/tlm"
)

// TestBatchDeadlineStopsRun runs a long scenario in a batch whose context
// expires after 50 ms, on each execution path. The batch context is the
// one deadline: the run must stop with context.DeadlineExceeded well
// before it could finish. The paper workload sized to a 2e9-cycle
// horizon keeps the estimator walking transactions long enough to meet
// the deadline; a short explicit workload would leave it an idle tail it
// prices analytically.
func TestBatchDeadlineStopsRun(t *testing.T) {
	for _, c := range []struct{ backend, accuracy, path string }{
		{exec.NameEvent, "", exec.NameEvent},
		{exec.NameCompiled, "", exec.NameCompiled},
		{"", AccuracyTransaction, tlm.Name},
	} {
		t.Run(c.path, func(t *testing.T) {
			sc := Scenario{
				Name:     "slow",
				System:   core.PaperSystem(),
				Cycles:   2_000_000_000,
				Backend:  c.backend,
				Accuracy: c.accuracy,
			}
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			start := time.Now()
			res := NewRunner(1).Run(ctx, []Scenario{sc})[0]
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Errorf("deadline took %v to stop the run", elapsed)
			}
			if !errors.Is(res.Err, context.DeadlineExceeded) {
				t.Fatalf("want the batch deadline, got %v", res.Err)
			}
			if res.Backend != c.path || res.Attempts != 1 {
				t.Errorf("ran on %q in %d attempts, want %s once", res.Backend, res.Attempts, c.path)
			}
		})
	}
}

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
