package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"ahbpower/internal/metrics"
	"ahbpower/internal/power"
)

// runTraced runs the paper workload with a trace recorder attached and
// returns the report and the trace.
func runTraced(t *testing.T, style Style, cycles uint64, window float64) (*Report, *metrics.Trace) {
	t.Helper()
	sys, err := NewSystem(PaperSystem())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadPaperWorkload(cycles); err != nil {
		t.Fatal(err)
	}
	tr, err := metrics.NewTrace(metrics.TraceConfig{
		Window: window, PerBlock: true, PerInstruction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	an, err := Attach(sys, AnalyzerConfig{Style: style, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(cycles); err != nil {
		t.Fatal(err)
	}
	return an.Report(), tr
}

// TestTraceConservation is the golden conservation check: the streaming
// trace and the analyzer report consume the identical per-cycle energy
// stream, so the trace total must equal the report total EXACTLY — the
// same float addition path, not merely within tolerance — for all three
// integration styles.
func TestTraceConservation(t *testing.T) {
	const cycles = 4000
	for _, style := range []Style{StyleGlobal, StyleLocal, StylePrivate} {
		t.Run(style.String(), func(t *testing.T) {
			r, tr := runTraced(t, style, cycles, 100e-9)

			if tr.Energy() != r.TotalEnergy {
				t.Errorf("trace energy %.17g J != report energy %.17g J (must be bit-identical)",
					tr.Energy(), r.TotalEnergy)
			}
			if tr.Cycles() != r.Cycles {
				t.Errorf("trace cycles=%d, report cycles=%d", tr.Cycles(), r.Cycles)
			}

			wins := tr.Windows()
			if len(wins) == 0 {
				t.Fatal("trace recorded no windows")
			}
			// CumEnergy telescopes: the last window's running total is the
			// report total, again exactly.
			if last := wins[len(wins)-1].CumEnergy; last != r.TotalEnergy {
				t.Errorf("last window CumEnergy %.17g != report %.17g", last, r.TotalEnergy)
			}
			// Re-summing window energies reorders the additions, so only a
			// tight relative tolerance can be asked of it.
			var sum float64
			for _, w := range wins {
				sum += w.Energy
			}
			if rel := math.Abs(sum-r.TotalEnergy) / r.TotalEnergy; rel > 1e-12 {
				t.Errorf("sum of window energies off by %.3g relative", rel)
			}

			// Per-block window sums must reproduce the report's Fig. 6
			// decomposition.
			for _, b := range power.Blocks() {
				var be float64
				for _, w := range wins {
					be += w.Block[b]
				}
				want := r.BlockEnergy[b.String()]
				if math.Abs(be-want) > 1e-12*math.Max(want, 1e-30)+1e-30 {
					t.Errorf("block %s: trace %.17g J, report %.17g J", b, be, want)
				}
			}

			// Per-instruction window totals must reproduce Table 1.
			totals := map[string]float64{}
			for _, w := range wins {
				for name, e := range w.Instr {
					totals[name] += e
				}
			}
			for _, row := range r.Table {
				got := totals[row.Instruction]
				if math.Abs(got-row.TotalEnergy) > 1e-12*math.Max(row.TotalEnergy, 1e-30)+1e-30 {
					t.Errorf("instruction %s: trace %.17g J, table %.17g J",
						row.Instruction, got, row.TotalEnergy)
				}
			}
		})
	}
}

// TestRunContextCancellation checks a single long run stops at a chunk
// boundary once the context is cancelled, keeps everything simulated so
// far, and stays resumable.
func TestRunContextCancellation(t *testing.T) {
	const cycles = 200000
	sys, err := NewSystem(PaperSystem())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadPaperWorkload(cycles); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside the simulation, a few hundred cycles in.
	sys.K.Schedule(300*sys.Topo.ClockPeriod(), func() { cancel() })

	err = sys.RunContext(ctx, cycles)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	reached := sys.Bus.Cycles()
	if reached == 0 || reached >= cycles/2 {
		t.Fatalf("cancelled run simulated %d of %d cycles", reached, cycles)
	}

	// The system must remain resumable: finish the remaining cycles and
	// match an uncancelled reference run cycle for cycle.
	if err := sys.RunContext(context.Background(), cycles-reached); err != nil {
		t.Fatal(err)
	}
	if got := sys.Bus.Cycles(); got != cycles {
		t.Errorf("resumed run reached %d cycles, want %d", got, cycles)
	}
}

// TestRunContextNilAndBackground checks the fast path: contexts that can
// never be cancelled must not chunk differently from a plain Run.
func TestRunContextChunkingIsInvisible(t *testing.T) {
	const cycles = 3000
	run := func(chunked bool) *Report {
		sys, err := NewSystem(PaperSystem())
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadPaperWorkload(cycles); err != nil {
			t.Fatal(err)
		}
		an, err := Attach(sys, AnalyzerConfig{Style: StyleGlobal})
		if err != nil {
			t.Fatal(err)
		}
		if chunked {
			// A cancellable context forces the chunked path.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			err = sys.RunContext(ctx, cycles)
		} else {
			err = sys.Run(cycles)
		}
		if err != nil {
			t.Fatal(err)
		}
		return an.Report()
	}
	plain, chunked := run(false), run(true)
	if plain.TotalEnergy != chunked.TotalEnergy || plain.Cycles != chunked.Cycles {
		t.Errorf("chunked run diverges: energy %.17g vs %.17g, cycles %d vs %d",
			chunked.TotalEnergy, plain.TotalEnergy, chunked.Cycles, plain.Cycles)
	}
}
