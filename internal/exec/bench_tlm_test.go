package exec_test

import (
	"context"
	"fmt"
	"testing"

	"ahbpower/internal/core"
	"ahbpower/internal/exec"
	"ahbpower/internal/tlm"
	"ahbpower/internal/workload"
)

// tlmCycles is the horizon of the transaction-level comparison. It is
// deliberately longer than benchCycles: the estimator pays a fixed
// cycle-accurate calibration prefix (cycles/16, clamped to at most 8192),
// so its speedup grows with the horizon, and the headline claim — and the
// CI gate — is about long runs, where the fast path matters.
const tlmCycles = 400_000

// tlmSweepSize is the number of seed-varied scenarios per iteration, kept
// small because every scenario simulates tlmCycles on the exact side.
const tlmSweepSize = 4

// tlmSweepWorkload is scenario i's traffic: the paper testbench sized to
// the horizon — saturating traffic, the estimator's stationary contract —
// seed-shifted per scenario like a real seed sweep.
func tlmSweepWorkload(i int) workload.Config {
	cfg := workload.PaperTestbench(0, int(tlmCycles)/100+2)
	cfg.Seed += int64(i) * 1_000_003
	return cfg
}

// benchTLMEstimate times the estimation of the seed sweep. Preparation
// (validating and resolving the traffic configurations) is excluded, but
// it generates nothing: the traffic is generated inside Estimate, from
// cursors, by the calibration prefix's masters and by the walk, so the
// timed region is the whole estimate a user waits for. Reports ns per
// scenario-cycle, directly comparable to the serial sweep below.
func benchTLMEstimate(b *testing.B) {
	b.Helper()
	b.ReportAllocs()
	topoCfg := core.PaperSystem().Topology()
	preps := make([]*tlm.Prepared, tlmSweepSize)
	for i := range preps {
		p, err := tlm.Prepare(tlm.Spec{
			Name:      fmt.Sprintf("tlm-sweep%02d", i),
			Topo:      topoCfg,
			Analyzer:  core.AnalyzerConfig{Style: core.StyleGlobal},
			Workloads: []workload.Config{tlmSweepWorkload(i)},
			Cycles:    tlmCycles,
		})
		if err != nil {
			b.Fatal(err)
		}
		preps[i] = p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range preps {
			if _, err := p.Estimate(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tlmSweepSize)/tlmCycles, "ns/cycle")
}

// benchTLMSerial times the same sweep simulated cycle-accurately one
// scenario at a time, reporting ns per scenario-cycle. Building the
// system is excluded from the timer, as in benchRun; generating the
// traffic is timed on this side too, since the masters draw it inside
// Run.
func benchTLMSerial(b *testing.B, backend exec.Backend) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < tlmSweepSize; j++ {
			b.StopTimer()
			sys, err := core.NewSystem(core.PaperSystem())
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.LoadWorkload(tlmSweepWorkload(j)); err != nil {
				b.Fatal(err)
			}
			if _, err := core.Attach(sys, core.AnalyzerConfig{Style: core.StyleGlobal}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := backend.Run(context.Background(), sys, tlmCycles); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tlmSweepSize)/tlmCycles, "ns/cycle")
}

// BenchmarkTLMSweep is the transaction-level fast path's headline
// comparison: the same seed sweep estimated at transaction accuracy
// versus simulated cycle-accurately on the compiled backend. The
// compiled/tlm ns-per-cycle ratio is the estimator speedup recorded in
// EXPERIMENTS.md and gated (≥8x) by tools/benchgate in CI; the paired
// accuracy cost is gated separately by tools/tlmcheck.
func BenchmarkTLMSweep(b *testing.B) {
	b.Run("tlm/sweep", func(b *testing.B) { benchTLMEstimate(b) })
	b.Run("compiled/sweep", func(b *testing.B) { benchTLMSerial(b, exec.Compiled()) })
}
