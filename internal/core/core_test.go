package core

import (
	"math"
	"strings"
	"testing"

	"ahbpower/internal/power"
)

// buildAnalyzed creates the paper's system, loads the paper workload and
// attaches an analyzer of the given style.
func buildAnalyzed(t *testing.T, style Style, cycles uint64) (*System, *Analyzer) {
	t.Helper()
	sys, err := NewSystem(PaperSystem())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadPaperWorkload(cycles); err != nil {
		t.Fatal(err)
	}
	an, err := Attach(sys, AnalyzerConfig{Style: style})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(cycles); err != nil {
		t.Fatal(err)
	}
	return sys, an
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(SystemConfig{}); err == nil {
		t.Error("empty config must fail")
	}
}

func TestPaperSystemShape(t *testing.T) {
	sys, err := NewSystem(PaperSystem())
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Masters) != 2 || sys.Default == nil || len(sys.Slaves) != 3 {
		t.Errorf("system shape: %d masters, default=%v, %d slaves",
			len(sys.Masters), sys.Default != nil, len(sys.Slaves))
	}
	if sys.Bus.Cfg.NumMasters != 3 {
		t.Errorf("bus masters=%d, want 3 (2 active + default)", sys.Bus.Cfg.NumMasters)
	}
	if got := sys.Bus.Clk.FrequencyHz(); math.Abs(got-100e6) > 1e3 {
		t.Errorf("clock=%v Hz, want 100 MHz", got)
	}
}

func TestPaperRunProtocolClean(t *testing.T) {
	sys, _ := buildAnalyzed(t, StyleGlobal, 3000)
	for _, e := range sys.Monitor.Errors() {
		t.Errorf("protocol violation: %v", e)
	}
	if sys.Monitor.Counts()["nonseq"] == 0 {
		t.Error("workload produced no transfers")
	}
	if sys.Monitor.Counts()["handover"] == 0 {
		t.Error("workload produced no handovers")
	}
}

func TestTableOnlyPaperInstructions(t *testing.T) {
	_, an := buildAnalyzed(t, StyleGlobal, 5000)
	r := an.Report()
	allowed := map[string]bool{}
	for _, in := range power.PermissibleInstructions() {
		allowed[in.String()] = true
	}
	for _, row := range r.Table {
		if !allowed[row.Instruction] {
			t.Errorf("instruction %s outside the paper's permissible set (count=%d)", row.Instruction, row.Count)
		}
	}
}

func TestReportConservation(t *testing.T) {
	_, an := buildAnalyzed(t, StyleGlobal, 4000)
	r := an.Report()
	var sum float64
	for _, row := range r.Table {
		sum += row.TotalEnergy
	}
	// Instruction energies sum to the total (minus the establishing cycle).
	if math.Abs(sum-r.TotalEnergy) > 1e-9*r.TotalEnergy+1e-12 {
		t.Errorf("table sum %g != total %g", sum, r.TotalEnergy)
	}
	// Block energies sum to the total too.
	var bsum float64
	for _, e := range r.BlockEnergy {
		bsum += e
	}
	if math.Abs(bsum-r.TotalEnergy) > 1e-9*r.TotalEnergy+1e-12 {
		t.Errorf("block sum %g != total %g", bsum, r.TotalEnergy)
	}
	// Class shares sum to ~1.
	if s := r.DataTransferShare + r.ArbitrationShare + r.IdleShare; math.Abs(s-1) > 1e-6 {
		t.Errorf("class shares sum to %v", s)
	}
}

func TestPaperShapeDataTransferDominates(t *testing.T) {
	// The paper's headline: most energy in data transfer, ~11% in
	// arbitration; M2S dominates the sub-blocks and ARB is small.
	_, an := buildAnalyzed(t, StyleGlobal, 20000)
	r := an.Report()
	if r.DataTransferShare < 0.6 {
		t.Errorf("data-transfer share=%.1f%%, want >60%%", 100*r.DataTransferShare)
	}
	if r.ArbitrationShare > 0.35 || r.ArbitrationShare < 0.01 {
		t.Errorf("arbitration share=%.1f%%, want a small-but-visible fraction", 100*r.ArbitrationShare)
	}
	if r.DataTransferShare < r.ArbitrationShare*3 {
		t.Error("data transfer must dominate arbitration")
	}
	if r.BlockShare["M2S"] <= r.BlockShare["ARB"] {
		t.Errorf("M2S (%.1f%%) must exceed ARB (%.1f%%)",
			100*r.BlockShare["M2S"], 100*r.BlockShare["ARB"])
	}
	if r.BlockShare["M2S"] <= r.BlockShare["DEC"] {
		t.Error("M2S must exceed DEC")
	}
}

func TestAvgInstructionEnergiesInPaperBand(t *testing.T) {
	// Table 1 reports 14.7-22.4 pJ per instruction; with the calibrated
	// default technology our averages must land in the same decade.
	_, an := buildAnalyzed(t, StyleGlobal, 20000)
	r := an.Report()
	for _, row := range r.Table {
		if row.Count < 50 {
			continue // rare instructions have noisy averages
		}
		pj := row.AvgEnergy * 1e12
		if pj < 2 || pj > 100 {
			t.Errorf("%s avg=%.1f pJ, outside the plausible band [2,100]", row.Instruction, pj)
		}
	}
}

// TestAnalyzerConfigValidate pins the analyzer constants Attach accepts:
// the zero Tech means the defaults, any other Tech needs VDD, CPD and CO
// positive and finite, and a DPM wake-up energy must be non-negative and
// finite.
func TestAnalyzerConfigValidate(t *testing.T) {
	for _, cfg := range []AnalyzerConfig{
		{},
		{Tech: power.DefaultTech()},
		{DPM: &DPMConfig{IdleThreshold: 4}},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
	sys, err := NewSystem(PaperSystem())
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []AnalyzerConfig{
		{Tech: power.Tech{VDD: 1.8, CPD: -3.2e-13, CO: 5.3e-13}},
		{Tech: power.Tech{VDD: 1.2}},
		{Tech: power.Tech{CPD: 1e-12, CO: 1e-12}},
		{Tech: power.Tech{VDD: math.NaN(), CPD: 1e-12, CO: 1e-12}},
		{Tech: power.Tech{VDD: 1.8, CPD: 1e-12, CO: math.Inf(1)}},
		{DPM: &DPMConfig{IdleThreshold: 4, WakeEnergy: -1e-9}},
		{DPM: &DPMConfig{WakeEnergy: math.Inf(1)}},
	} {
		if cfg.Validate() == nil {
			t.Errorf("Validate accepted %+v", cfg)
		}
		if _, err := Attach(sys, cfg); err == nil {
			t.Errorf("Attach accepted %+v", cfg)
		}
	}
}

// TestAttachRefusesModelsForAnotherShape attaches a model set
// characterized for the paper's 3-master, 3-slave, 32-bit bus to an
// 8-slave, 16-bit bus: Attach must refuse it, naming the first dimension
// that differs, instead of evaluating a 3-output decoder for 8 slaves.
// The same set attaches to the paper system it was built for.
func TestAttachRefusesModelsForAnotherShape(t *testing.T) {
	models, err := power.ResolveModels(nil, 3, 3, 32, power.Tech{})
	if err != nil {
		t.Fatal(err)
	}
	paper, err := NewSystem(PaperSystem())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(paper, AnalyzerConfig{Models: models}); err != nil {
		t.Fatalf("paper-shape models on the paper system: %v", err)
	}
	cfg := PaperSystem()
	cfg.NumSlaves = 8
	cfg.DataWidth = 16
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Attach(sys, AnalyzerConfig{Models: models})
	if err == nil || !strings.Contains(err.Error(), "decoder.NO=3") {
		t.Fatalf("Attach = %v, want a refusal naming decoder.NO", err)
	}
}

func TestStylesProduceSimilarTotals(t *testing.T) {
	// The three integration styles are approximations of each other; totals
	// must agree within a factor of ~2.
	_, g := buildAnalyzed(t, StyleGlobal, 5000)
	_, l := buildAnalyzed(t, StyleLocal, 5000)
	_, p := buildAnalyzed(t, StylePrivate, 5000)
	eg := g.Report().TotalEnergy
	el := l.Report().TotalEnergy
	ep := p.Report().TotalEnergy
	if eg <= 0 || el <= 0 || ep <= 0 {
		t.Fatalf("non-positive energies: %g %g %g", eg, el, ep)
	}
	for _, pair := range [][2]float64{{eg, el}, {eg, ep}, {el, ep}} {
		ratio := pair[0] / pair[1]
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("style totals disagree: %g vs %g", pair[0], pair[1])
		}
	}
	// The global style reuses the muxed-output activity as its input-term
	// estimate, which double-counts select-induced churn; the measured
	// (local) input activity must therefore not exceed it by much.
	if el > eg*1.5 {
		t.Errorf("local (%g) implausibly above global (%g)", el, eg)
	}
}

func TestDeterministicReports(t *testing.T) {
	_, a1 := buildAnalyzed(t, StyleGlobal, 3000)
	_, a2 := buildAnalyzed(t, StyleGlobal, 3000)
	r1, r2 := a1.Report(), a2.Report()
	if r1.TotalEnergy != r2.TotalEnergy || r1.Cycles != r2.Cycles {
		t.Error("identical runs must produce identical reports")
	}
	if len(r1.Table) != len(r2.Table) {
		t.Fatal("table shapes differ")
	}
	for i := range r1.Table {
		if r1.Table[i] != r2.Table[i] {
			t.Errorf("row %d differs: %+v vs %+v", i, r1.Table[i], r2.Table[i])
		}
	}
}

func TestActivityRecording(t *testing.T) {
	sys, err := NewSystem(PaperSystem())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadPaperWorkload(1000); err != nil {
		t.Fatal(err)
	}
	an, err := Attach(sys, AnalyzerConfig{Style: StyleGlobal, RecordActivity: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(1000); err != nil {
		t.Fatal(err)
	}
	act := an.Activity()
	if act == nil {
		t.Fatal("activity store missing")
	}
	if act.BitChangeCount("HADDR") == 0 || act.BitChangeCount("HWDATA") == 0 {
		t.Error("bus signals recorded no activity")
	}
	if len(act.Report()) < 5 {
		t.Errorf("activity report too small: %d signals", len(act.Report()))
	}
	// HTRANS is 2 bits wide and HMASTER indexes at most 16 masters, so
	// neither can change by more bits per cycle.
	if act.Samples != 1000 || act.BitChangeCount("HTRANS") > 2*999 || act.BitChangeCount("HMASTER") > 4*999 {
		t.Errorf("samples %d, HTRANS %d, HMASTER %d bit changes", act.Samples,
			act.BitChangeCount("HTRANS"), act.BitChangeCount("HMASTER"))
	}
}

func TestStyleNames(t *testing.T) {
	if StyleGlobal.String() != "global" || StyleLocal.String() != "local" || StylePrivate.String() != "private" {
		t.Error("style names")
	}
	if Style(7).String() == "" {
		t.Error("unknown style must format")
	}
}

func TestFormatters(t *testing.T) {
	if got := FormatEnergy(14.7e-12); got != "14.7 pJ" {
		t.Errorf("FormatEnergy=%q", got)
	}
	if got := FormatEnergy(839.6e-6); got != "840 uJ" {
		t.Errorf("FormatEnergy=%q", got)
	}
	if got := FormatPower(1.5e-3); got != "1.5 mW" {
		t.Errorf("FormatPower=%q", got)
	}
	if got := FormatEnergy(0); got != "0 J" {
		t.Errorf("FormatEnergy(0)=%q", got)
	}
	if got := FormatPower(2.5); got != "2.5 W" {
		t.Errorf("FormatPower=%q", got)
	}
	if got := FormatEnergy(3e-16); got != "0.3 fJ" {
		t.Errorf("FormatEnergy small=%q", got)
	}
	if got := FormatEnergy(5e-9); got != "5 nJ" {
		t.Errorf("FormatEnergy nano=%q", got)
	}
}

func TestReportFormattingSmoke(t *testing.T) {
	_, an := buildAnalyzed(t, StyleGlobal, 2000)
	r := an.Report()
	if s := r.FormatTable(); len(s) == 0 || s[0] == 0 {
		t.Error("empty table")
	}
	if s := r.FormatBreakdown(); len(s) == 0 {
		t.Error("empty breakdown")
	}
	if s := r.FormatSummary(); len(s) == 0 {
		t.Error("empty summary")
	}
}
