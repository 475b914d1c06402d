package exec_test

import (
	"context"
	"fmt"
	"testing"

	"ahbpower/internal/core"
	"ahbpower/internal/exec"
	"ahbpower/internal/lane"
	"ahbpower/internal/workload"
)

// laneSweepSize is the width of the uniform-sweep benchmark: a full lane
// pack, one scenario per bit of the packed words.
const laneSweepSize = lane.MaxLanes

// laneSweepWorkload is lane i's traffic for the uniform sweep: the paper
// testbench sized to benchCycles, seed-shifted per scenario so the lanes
// diverge the way a real seed sweep does.
func laneSweepWorkload(i int) workload.Config {
	cfg := workload.PaperTestbench(0, int(benchCycles)/100+2)
	cfg.Seed += int64(i) * 1_000_003
	return cfg
}

// laneSweepSpecs builds the 64 lane specs of the uniform sweep.
func laneSweepSpecs(analyzer bool) []lane.Spec {
	specs := make([]lane.Spec, laneSweepSize)
	topoCfg := core.PaperSystem().Topology()
	for i := range specs {
		specs[i] = lane.Spec{
			Name:         fmt.Sprintf("sweep%02d", i),
			Topo:         topoCfg,
			Analyzer:     core.AnalyzerConfig{Style: core.StyleGlobal},
			Workloads:    []workload.Config{laneSweepWorkload(i)},
			Cycles:       benchCycles,
			SkipAnalyzer: !analyzer,
		}
	}
	return specs
}

// benchLanePack times one packed execution of the 64-scenario sweep per
// iteration, with pack construction (netlist lowering, workload
// generation) excluded, and reports ns per scenario-cycle — directly
// comparable to benchRun's ns/cycle.
func benchLanePack(b *testing.B, analyzer bool) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pack, err := lane.BuildPack(laneSweepSpecs(analyzer))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		outs := pack.Run(context.Background())
		b.StopTimer()
		for j := range outs {
			if outs[j].Err != nil {
				b.Fatalf("lane %d: %v", j, outs[j].Err)
			}
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(laneSweepSize)/benchCycles, "ns/cycle")
}

// benchSweepSerial times the same 64-scenario sweep run one scenario at a
// time on a conventional backend, construction excluded exactly like
// benchRun, reporting ns per scenario-cycle.
func benchSweepSerial(b *testing.B, backend exec.Backend) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < laneSweepSize; j++ {
			b.StopTimer()
			sys, err := core.NewSystem(core.PaperSystem())
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.LoadWorkload(laneSweepWorkload(j)); err != nil {
				b.Fatal(err)
			}
			if _, err := core.Attach(sys, core.AnalyzerConfig{Style: core.StyleGlobal}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := backend.Run(context.Background(), sys, benchCycles); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(laneSweepSize)/benchCycles, "ns/cycle")
}

// BenchmarkLaneSweep is the lane backend's headline comparison: a
// 64-scenario uniform seed sweep executed as one bit-parallel pack versus
// the same sweep run scenario-by-scenario on the compiled backend. The
// compiled/lanes ns-per-cycle ratio is the pack speedup recorded in
// EXPERIMENTS.md and gated (≥1.2x) by tools/benchgate in CI.
func BenchmarkLaneSweep(b *testing.B) {
	b.Run("lanes/sweep", func(b *testing.B) { benchLanePack(b, true) })
	b.Run("compiled/sweep", func(b *testing.B) { benchSweepSerial(b, exec.Compiled()) })
}

// BenchmarkLaneBare measures the packed interpreter without the analyzer
// — the per-lane stepping cost alone, isolated from the shared power
// accounting that dominates instrumented sweeps.
func BenchmarkLaneBare(b *testing.B) {
	b.Run("lanes/bare", func(b *testing.B) { benchLanePack(b, false) })
}
