package exec_test

import (
	"context"
	"testing"

	"ahbpower/internal/core"
	"ahbpower/internal/exec"
)

// benchCycles is the run length of one timed benchmark iteration: long
// enough to amortize a run's warm-up (the first sequences, the slaves'
// memory maps filling), and fixed, so that allocs/op means the same
// thing at every -benchtime.
const benchCycles = 10_000

// benchRun times backend.Run over fixed-length runs on fresh systems and
// reports ns per simulated bus cycle as the headline metric (ns/op is per
// benchCycles-cycle run). Building the system and attaching the analyzer
// are excluded from the timer; traffic generation is not, because the
// masters draw their sequences from cursors inside Run.
func benchRun(b *testing.B, backend exec.Backend, analyzer bool) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := core.NewSystem(core.PaperSystem())
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.LoadPaperWorkload(benchCycles); err != nil {
			b.Fatal(err)
		}
		if analyzer {
			if _, err := core.Attach(sys, core.AnalyzerConfig{Style: core.StyleGlobal}); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := backend.Run(context.Background(), sys, benchCycles); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchCycles, "ns/cycle")
}

// BenchmarkBackend compares the two execution backends on the
// static-topology paper sweep scenario — the workload the compiled
// backend exists for — with the global-style analyzer attached exactly
// as a sweep would run it. The compiled/event ns/cycle ratio on "sweep"
// is the speedup recorded in EXPERIMENTS.md.
func BenchmarkBackend(b *testing.B) {
	b.Run("event/sweep", func(b *testing.B) { benchRun(b, exec.Event(), true) })
	b.Run("compiled/sweep", func(b *testing.B) { benchRun(b, exec.Compiled(), true) })
}

// BenchmarkBackendBare measures the backends without the analyzer — the
// pure kernel-scheduling cost the flat stepper eliminates, isolated from
// the shared power-accounting work.
func BenchmarkBackendBare(b *testing.B) {
	b.Run("event/bare", func(b *testing.B) { benchRun(b, exec.Event(), false) })
	b.Run("compiled/bare", func(b *testing.B) { benchRun(b, exec.Compiled(), false) })
}
