// Package experiments contains one runner per artifact of the paper's
// evaluation — Table 1, Figures 3-6, the §6 instrumentation-overhead claim
// and the §5.1 macromodel validation — plus the ablations called out in
// DESIGN.md (instruction granularity, power-model style, parametric
// scaling). Each runner returns structured data and a formatted,
// paper-style text block.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"ahbpower/internal/charact"
	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/metrics"
	"ahbpower/internal/power"
	"ahbpower/internal/stats"
)

// PaperTable1 is the published Table 1, used for side-by-side reporting.
// Total energies are as printed (the paper's totals column is internally
// inconsistent with its averages; see DESIGN.md §5), so only the averages
// and percentage shares are meaningful reference points.
var PaperTable1 = []struct {
	Instruction string
	AvgPJ       float64
	SharePct    float64
}{
	{"IDLE_HO_IDLE_HO", 14.7, 11.49},
	{"IDLE_HO_WRITE", 16.7, 0.06},
	{"READ_WRITE", 19.8, 43.0}, // share reconstructed from the total
	{"WRITE_READ", 14.7, 43.0},
	{"READ_IDLE_HO", 22.4, 1.14},
}

// Table1Result is the reproduction of the paper's Table 1.
type Table1Result struct {
	Report *core.Report
	Text   string
}

// runPaper executes the paper testbench (paper system + paper workload)
// through the batch engine and returns the result. Protocol violations
// are treated as errors.
func runPaper(cycles uint64, cfg core.AnalyzerConfig) (engine.Result, error) {
	res := engine.RunOne(context.Background(), engine.Scenario{
		Name:     "paper",
		System:   core.PaperSystem(),
		Analyzer: cfg,
		Cycles:   cycles,
	})
	if res.Err != nil {
		return res, res.Err
	}
	if len(res.Violations) > 0 {
		return res, fmt.Errorf("experiments: %d protocol violations (first: %v)", len(res.Violations), res.Violations[0])
	}
	return res, nil
}

// Table1 reproduces the instruction energy analysis. The paper simulates
// 50 µs at 100 MHz (5000 cycles); pass a larger cycle count for more
// stable percentages.
func Table1(cycles uint64) (*Table1Result, error) {
	res, err := runPaper(cycles, core.AnalyzerConfig{Style: core.StyleGlobal})
	if err != nil {
		return nil, err
	}
	r := res.Report
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — instruction energy analysis (%d cycles @100 MHz)\n\n", cycles)
	b.WriteString(r.FormatTable())
	b.WriteString("\nPaper reference (averages / shares):\n")
	for _, p := range PaperTable1 {
		fmt.Fprintf(&b, "  %-18s %6.1f pJ %8.2f%%\n", p.Instruction, p.AvgPJ, p.SharePct)
	}
	fmt.Fprintf(&b, "\nEnergy classes: data-transfer %.2f%% (paper ~87%%), arbitration %.2f%% (paper ~12.7%%)\n",
		100*r.DataTransferShare, 100*r.ArbitrationShare)
	return &Table1Result{Report: r, Text: b.String()}, nil
}

// FiguresResult bundles the reproduction of Figs. 3-6.
type FiguresResult struct {
	Report *core.Report
	Total  *stats.Series // Fig. 3
	ARB    *stats.Series // Fig. 4
	M2S    *stats.Series // Fig. 5
	DEC    *stats.Series
	S2M    *stats.Series
	Text   string
}

// Figures reproduces the power-versus-time plots (first 4 µs analyzed in
// the paper) and the sub-block contribution of Fig. 6. window is the
// power-averaging window in seconds.
func Figures(cycles uint64, window float64) (*FiguresResult, error) {
	tr, err := metrics.NewTrace(metrics.TraceConfig{Window: window, PerBlock: true})
	if err != nil {
		return nil, fmt.Errorf("experiments: figure window: %w", err)
	}
	res, err := runPaper(cycles, core.AnalyzerConfig{Style: core.StyleGlobal, Trace: tr})
	if err != nil {
		return nil, err
	}
	fr := &FiguresResult{
		Report: res.Report,
		Total:  tr.PowerSeries(),
		ARB:    tr.BlockPowerSeries(power.BlockARB),
		M2S:    tr.BlockPowerSeries(power.BlockM2S),
		DEC:    tr.BlockPowerSeries(power.BlockDEC),
		S2M:    tr.BlockPowerSeries(power.BlockS2M),
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figs. 3-5 — windowed power traces (%g ns windows)\n", window*1e9)
	for _, f := range []struct {
		label string
		s     *stats.Series
	}{{"AHB total", fr.Total}, {"arbiter", fr.ARB}, {"M2S mux", fr.M2S}} {
		fmt.Fprintf(&b, "  %-10s points=%-5d mean=%-12s peak=%s\n",
			f.label, f.s.Len(), core.FormatPower(f.s.MeanY()), core.FormatPower(f.s.MaxY()))
	}
	b.WriteString("\nFig. 6 — sub-block power contribution:\n")
	b.WriteString(fr.Report.FormatBreakdown())
	fr.Text = b.String()
	return fr, nil
}

// OverheadResult reports the §6 claim that power instrumentation roughly
// doubles simulation time.
type OverheadResult struct {
	BaselineMS float64
	PerStyleMS map[string]float64
	Slowdown   map[string]float64
	Text       string
}

// Overhead measures wall-clock simulation time without power analysis and
// with each analyzer style plus the Activity store (the paper's
// instrumentation: Activity class and power FSM), using the engine's
// Metrics.Run (simulation loop only, excluding construction and workload
// generation) on a single-worker runner so runs never contend for the
// CPU. Each configuration is run three times and the minimum is
// reported, to suppress scheduler and allocator noise.
func Overhead(cycles uint64) (*OverheadResult, error) {
	runner := engine.NewRunner(1)
	run := func(skipAnalyzer bool, style core.Style) (float64, error) {
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			res := runner.Run(context.Background(), []engine.Scenario{{
				Name:         "overhead_" + style.String(),
				System:       core.PaperSystem(),
				Analyzer:     core.AnalyzerConfig{Style: style, RecordActivity: !skipAnalyzer},
				Cycles:       cycles,
				SkipAnalyzer: skipAnalyzer,
			}})[0]
			if res.Err != nil {
				return 0, res.Err
			}
			ms := float64(res.Metrics.Run.Microseconds()) / 1000
			if rep == 0 || ms < best {
				best = ms
			}
		}
		return best, nil
	}
	base, err := run(true, core.StyleGlobal)
	if err != nil {
		return nil, err
	}
	res := &OverheadResult{
		BaselineMS: base,
		PerStyleMS: map[string]float64{},
		Slowdown:   map[string]float64{},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Instrumentation overhead over %d cycles\n", cycles)
	fmt.Fprintf(&b, "  %-26s %8.2f ms\n", "functional only", base)
	for _, style := range []core.Style{core.StyleGlobal, core.StyleLocal, core.StylePrivate} {
		ms, err := run(false, style)
		if err != nil {
			return nil, err
		}
		res.PerStyleMS[style.String()] = ms
		if base > 0 {
			res.Slowdown[style.String()] = ms / base
		}
		fmt.Fprintf(&b, "  %-26s %8.2f ms  (x%.2f)\n", "power "+style.String()+" + activity", ms, ms/base)
	}
	b.WriteString("Paper: \"the price to pay ... is a doubling in the simulation time\".\n")
	res.Text = b.String()
	return res, nil
}

// ValidationResult is the §5.1 macromodel-validation experiment: fits of
// the AHB-sized sub-blocks against their gate-level netlists.
type ValidationResult struct {
	Decoder *charact.Fit
	Mux     *charact.Fit
	Arbiter *charact.Fit
	Text    string
}

// Validation characterizes the paper's sub-blocks (3-slave decoder,
// masters mux, 3-master arbiter) at gate level and reports macromodel
// fidelity — the reproduction of "validated using the software SIS".
func Validation(vectors int, seed int64) (*ValidationResult, error) {
	tech := power.DefaultTech()
	dec, err := charact.CharacterizeDecoder(3, vectors, seed, tech)
	if err != nil {
		return nil, err
	}
	// A full 72-bit mux netlist is large; characterize a width-scaled
	// version (the macromodel is linear in w).
	mux, _, err := charact.CharacterizeMux(16, 3, vectors, seed+1, tech)
	if err != nil {
		return nil, err
	}
	arb, err := charact.CharacterizeArbiter(3, vectors, seed+2, tech)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString("Macromodel validation against gate-level netlists (SIS substitute)\n")
	for _, f := range []*charact.Fit{dec, mux, arb} {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return &ValidationResult{Decoder: dec, Mux: mux, Arbiter: arb, Text: b.String()}, nil
}
