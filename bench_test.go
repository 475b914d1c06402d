// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablations and substrate micro-benchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// Each paper artifact has one benchmark; custom metrics expose the
// quantities the paper reports (energies in pJ, percentage shares,
// instrumentation slowdown) so the reproduction can be read directly from
// the benchmark output.
package ahbpower_test

import (
	"context"
	"testing"

	"ahbpower"
	"ahbpower/internal/charact"
	"ahbpower/internal/core"
	"ahbpower/internal/experiments"
	"ahbpower/internal/gate"
	"ahbpower/internal/power"
	"ahbpower/internal/sim"
	"ahbpower/internal/synth"
)

const benchCycles = 20000 // 200 us at 100 MHz per iteration

// BenchmarkTable1Instructions regenerates the paper's Table 1 and reports
// the headline per-instruction averages and energy-class shares.
func BenchmarkTable1Instructions(b *testing.B) {
	var r *core.Report
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(benchCycles)
		if err != nil {
			b.Fatal(err)
		}
		r = res.Report
	}
	for _, row := range r.Table {
		switch row.Instruction {
		case "READ_WRITE", "WRITE_READ", "IDLE_HO_IDLE_HO":
			b.ReportMetric(row.AvgEnergy*1e12, "pJ/"+row.Instruction)
		}
	}
	b.ReportMetric(100*r.DataTransferShare, "%data-transfer")
	b.ReportMetric(100*r.ArbitrationShare, "%arbitration")
}

// benchFigure runs the Figures experiment once per iteration and reports
// the requested series' mean power.
func benchFigure(b *testing.B, pick func(*experiments.FiguresResult) float64, metric string) {
	b.Helper()
	var v float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figures(4000, 100e-9) // first ~40 us, 100 ns windows
		if err != nil {
			b.Fatal(err)
		}
		v = pick(res)
	}
	b.ReportMetric(v, metric)
}

// BenchmarkFig3TotalPower regenerates the total AHB power trace (Fig. 3).
func BenchmarkFig3TotalPower(b *testing.B) {
	benchFigure(b, func(r *experiments.FiguresResult) float64 { return r.Total.MeanY() * 1e3 }, "mW-mean-total")
}

// BenchmarkFig4ArbiterPower regenerates the arbiter power trace (Fig. 4).
func BenchmarkFig4ArbiterPower(b *testing.B) {
	benchFigure(b, func(r *experiments.FiguresResult) float64 { return r.ARB.MeanY() * 1e6 }, "uW-mean-arb")
}

// BenchmarkFig5M2SPower regenerates the M2S multiplexer power trace
// (Fig. 5).
func BenchmarkFig5M2SPower(b *testing.B) {
	benchFigure(b, func(r *experiments.FiguresResult) float64 { return r.M2S.MeanY() * 1e3 }, "mW-mean-m2s")
}

// BenchmarkFig6SubblockContribution regenerates the sub-block power
// contribution (Fig. 6).
func BenchmarkFig6SubblockContribution(b *testing.B) {
	var r *core.Report
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figures(4000, 100e-9)
		if err != nil {
			b.Fatal(err)
		}
		r = res.Report
	}
	for _, blk := range power.Blocks() {
		b.ReportMetric(100*r.BlockShare[blk.String()], "%"+blk.String())
	}
}

// runInstrumented builds and runs the paper system with or without power
// analysis plus the Activity store (the paper's instrumentation); the
// ratio of the instrumented benchmarks to this baseline reproduces the
// paper's "doubling in the simulation time" claim (C2).
func runInstrumented(b *testing.B, attach bool, style core.Style) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		sys, err := ahbpower.NewSystem(ahbpower.PaperSystem())
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.LoadPaperWorkload(benchCycles); err != nil {
			b.Fatal(err)
		}
		if attach {
			if _, err := ahbpower.AttachConfig(sys, ahbpower.AnalyzerConfig{Style: style, RecordActivity: true}); err != nil {
				b.Fatal(err)
			}
		}
		if err := sys.Run(benchCycles); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstrumentationOverheadNone is the functional-only baseline.
func BenchmarkInstrumentationOverheadNone(b *testing.B) {
	runInstrumented(b, false, core.StyleGlobal)
}

// BenchmarkInstrumentationOverheadGlobal measures the global-style cost.
func BenchmarkInstrumentationOverheadGlobal(b *testing.B) {
	runInstrumented(b, true, core.StyleGlobal)
}

// BenchmarkInstrumentationOverheadLocal measures the local-style cost.
func BenchmarkInstrumentationOverheadLocal(b *testing.B) {
	runInstrumented(b, true, core.StyleLocal)
}

// BenchmarkInstrumentationOverheadPrivate measures the private-style cost.
func BenchmarkInstrumentationOverheadPrivate(b *testing.B) {
	runInstrumented(b, true, core.StylePrivate)
}

// benchTrace runs an analyzed simulation with or without a trace
// recorder subscribed to the analyzer's sample stream. Comparing
// BenchmarkTraceAttached to BenchmarkTraceDetached isolates the recorder
// cost: detached must be free (no samples are even constructed when the
// hub has no observers), attached must stay under ~10% of the analyzed
// run.
func benchTrace(b *testing.B, attach bool) {
	b.Helper()
	var tr *ahbpower.Trace
	for i := 0; i < b.N; i++ {
		sys, err := ahbpower.NewSystem(ahbpower.PaperSystem())
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.LoadPaperWorkload(benchCycles); err != nil {
			b.Fatal(err)
		}
		opts := []ahbpower.AttachOption{ahbpower.WithStyle(ahbpower.StyleGlobal)}
		if attach {
			tr, err = ahbpower.NewTrace(ahbpower.TraceConfig{
				Window: 100e-9, PerBlock: true, PerInstruction: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			opts = append(opts, ahbpower.WithTrace(tr))
		}
		an, err := ahbpower.Attach(sys, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Run(benchCycles); err != nil {
			b.Fatal(err)
		}
		if attach && tr.Energy() != an.Report().TotalEnergy {
			b.Fatal("trace diverged from report")
		}
	}
	if tr != nil {
		st := tr.Stats()
		b.ReportMetric(float64(st.Windows), "windows")
		b.ReportMetric(st.MeanPower*1e3, "mW-mean")
	}
}

// BenchmarkTraceDetached is the analyzed run without a recorder — the
// zero-overhead baseline for the streaming trace layer.
func BenchmarkTraceDetached(b *testing.B) { benchTrace(b, false) }

// BenchmarkTraceAttached is the same run with a full trace recorder
// (per-block and per-instruction) subscribed.
func BenchmarkTraceAttached(b *testing.B) { benchTrace(b, true) }

// BenchmarkMacromodelValidation reproduces the SIS-validation step (V1):
// gate-level characterization of the AHB-sized sub-blocks.
func BenchmarkMacromodelValidation(b *testing.B) {
	var res *experiments.ValidationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Validation(1000, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Decoder.R2, "R2-decoder")
	b.ReportMetric(res.Mux.R2, "R2-mux")
	b.ReportMetric(res.Mux.ModelMAPE, "%MAPE-mux-model")
}

// BenchmarkGranularityAblation runs the §3 instruction-granularity
// ablation (A1).
func BenchmarkGranularityAblation(b *testing.B) {
	var res *experiments.GranularityResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Granularity(8000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.FinePct, "%err-fine")
	b.ReportMetric(res.CoarsePct, "%err-coarse")
}

// BenchmarkModelStyleAblation runs the Fig. 1 style ablation (A2).
func BenchmarkModelStyleAblation(b *testing.B) {
	var res *experiments.StyleResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.ModelStyles(4000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.EnergyJ["local"]/res.EnergyJ["global"], "local/global")
	b.ReportMetric(res.EnergyJ["private"]/res.EnergyJ["global"], "private/global")
}

// BenchmarkBurstAblation sweeps burst lengths and reports the per-beat M2S
// energy amortization.
func BenchmarkBurstAblation(b *testing.B) {
	var res *experiments.BurstResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.BurstAblation(6000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Rows[0].M2SPJPerBeat, "pJ/beat-single")
	b.ReportMetric(res.Rows[3].M2SPJPerBeat, "pJ/beat-burst16")
}

// BenchmarkPatternAblation compares data patterns.
func BenchmarkPatternAblation(b *testing.B) {
	var res *experiments.PatternResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.PatternAblation(6000)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Rows {
		b.ReportMetric(r.PJPerBeat, "pJ/beat-"+r.Pattern)
	}
}

// BenchmarkDPMSweep evaluates the run-time power-management extension.
func BenchmarkDPMSweep(b *testing.B) {
	var res *experiments.DPMResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.DPMSweep(8000, 5e-12)
		if err != nil {
			b.Fatal(err)
		}
	}
	best := 0.0
	for _, r := range res.Rows {
		if r.SavingsPct > best {
			best = r.SavingsPct
		}
	}
	b.ReportMetric(best, "%best-savings")
}

// BenchmarkCoSimDecoder replays real bus traffic through the gate-level
// decoder and reports how well the macromodels track it.
func BenchmarkCoSimDecoder(b *testing.B) {
	var res *experiments.CoSimResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.CoSimDecoder(5000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.PaperErrPct, "%err-paper-formula")
	b.ReportMetric(res.FittedErrPct, "%err-fitted")
}

// BenchmarkImplAblation measures implementation sensitivity of the
// decoder energy coefficient.
func BenchmarkImplAblation(b *testing.B) {
	var res *experiments.ImplResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.ImplAblation(8, 2000, 11)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Rows[1].PJPerHD/res.Rows[0].PJPerHD, "nand/notand")
}

// BenchmarkCompareBuses compares AHB and ASB energy per beat under the
// same traffic.
func BenchmarkCompareBuses(b *testing.B) {
	var res *experiments.BusCompareResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.CompareBuses(8000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Rows[0].PJPerBeat, "pJ/beat-AHB")
	b.ReportMetric(res.Rows[1].PJPerBeat, "pJ/beat-ASB")
}

// BenchmarkParametricSweep evaluates the parametric macromodels (A3).
func BenchmarkParametricSweep(b *testing.B) {
	var res *experiments.ParametricResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Parametric()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.DecoderPJ[16]/res.DecoderPJ[2], "dec16/dec2")
}

// BenchmarkSimKernelEvents measures raw kernel throughput.
func BenchmarkSimKernelEvents(b *testing.B) {
	k := sim.NewKernel()
	s := sim.NewSignal(k, "s", 0)
	n := 0
	k.Method("p", func() { n++ }, s.Changed())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(1, func() { s.Write(i) })
		if err := k.Run(k.Now() + 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAHBBusCycles measures bus-model simulation speed in
// cycles/sec (reported as ns/op per simulated cycle).
func BenchmarkAHBBusCycles(b *testing.B) {
	sys, err := ahbpower.NewSystem(ahbpower.PaperSystem())
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.LoadPaperWorkload(uint64(b.N) + 1000); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := sys.Run(uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGateLevelDecoder measures the gate evaluator on the paper's
// decoder netlist.
func BenchmarkGateLevelDecoder(b *testing.B) {
	dec, err := synth.BuildDecoder(8)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := gate.NewEval(dec.Netlist, gate.Tech{VDD: 1.8, CPD: 20e-15, COut: 50e-15})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.SetInputs(uint64(i % 8))
		ev.Settle()
	}
}

// BenchmarkCharacterizeMux measures the characterization harness itself.
func BenchmarkCharacterizeMux(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := charact.CharacterizeMux(8, 4, 500, 1, power.DefaultTech()); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepScenarios is the batch both sweep benchmarks run: a 12-point
// design-space grid (the paper's §4 use case) at 2000 cycles per point.
func sweepScenarios() []ahbpower.Scenario {
	g := ahbpower.Grid{
		Base:     ahbpower.PaperSystem(),
		Analyzer: ahbpower.AnalyzerConfig{Style: ahbpower.StyleGlobal},
		Cycles:   2000,
		Slaves:   []int{2, 3, 8},
		Widths:   []int{16, 32},
		Waits:    []int{0, 1},
	}
	return g.Scenarios()
}

// benchSweep executes the reference grid with the given worker-pool size.
// Comparing BenchmarkSweepSerial to BenchmarkSweepParallel on a
// multi-core host shows the engine's sweep speedup (results stay
// byte-identical; see internal/engine's determinism test).
func benchSweep(b *testing.B, workers int) {
	b.Helper()
	scs := sweepScenarios()
	runner := ahbpower.NewRunner(workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := runner.Run(context.Background(), scs)
		if err := ahbpower.FirstError(results); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSerial runs the sweep one scenario at a time.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel runs the same sweep on four workers.
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 4) }
