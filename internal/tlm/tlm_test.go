package tlm

import (
	"context"
	"math"
	"testing"

	"ahbpower/internal/core"
	"ahbpower/internal/exec"
	"ahbpower/internal/metrics"
	"ahbpower/internal/power"
	"ahbpower/internal/topo"
	"ahbpower/internal/workload"
)

// cycleAccurate runs the exact reference for a spec-equivalent scenario
// and returns the analyzer report.
func cycleAccurate(t *testing.T, ct topo.Topology, az core.AnalyzerConfig,
	cfgs []workload.Config, cycles uint64) *core.Report {
	t.Helper()
	sys, err := core.NewSystemTopo(ct)
	if err != nil {
		t.Fatalf("NewSystemTopo: %v", err)
	}
	if len(cfgs) > 0 {
		err = sys.LoadWorkload(cfgs...)
	} else {
		err = sys.LoadPaperWorkload(cycles)
	}
	if err != nil {
		t.Fatalf("load workload: %v", err)
	}
	an, err := core.Attach(sys, az)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if err := exec.Compiled().Run(context.Background(), sys, cycles); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return an.Report()
}

func paperTopo(t *testing.T, policy string) topo.Topology {
	t.Helper()
	ct := core.PaperSystem().Topology()
	if policy != "" {
		ct.Policy = policy
	}
	ct = ct.Canonical()
	if err := topo.Check(ct); err != nil {
		t.Fatalf("paper topology invalid: %v", err)
	}
	return ct
}

func divergence(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// TestEstimatePolicies checks the energy divergence of the calibrated
// estimate against the cycle-accurate reference for the paper's three
// arbitration policies. The bound here is deliberately looser than the
// CI budget (tools/tlmcheck measures the real distribution over many
// scenarios); this pins that the estimator is in the right ballpark for
// every policy, including the preempting ones the walk does not replay.
func TestEstimatePolicies(t *testing.T) {
	const cycles = 20_000
	for _, policy := range []string{"sticky", "fixed", "rr"} {
		t.Run(policy, func(t *testing.T) {
			ct := paperTopo(t, policy)
			az := core.AnalyzerConfig{Style: core.StyleGlobal}
			out, err := Estimate(context.Background(), Spec{
				Name: "paper-" + policy, Topo: ct, Analyzer: az, Cycles: cycles,
			})
			if err != nil {
				t.Fatalf("Estimate: %v", err)
			}
			ref := cycleAccurate(t, ct, az, nil, cycles)
			d := divergence(out.Report.TotalEnergy, ref.TotalEnergy)
			t.Logf("policy %s: est %.4g J, ref %.4g J, divergence %.2f%%, factor %.3f",
				policy, out.Report.TotalEnergy, ref.TotalEnergy, 100*d, out.CalibrationFactor)
			if d > 0.15 {
				t.Errorf("policy %s: energy divergence %.1f%% exceeds 15%%", policy, 100*d)
			}
			if out.Report.Cycles != cycles {
				t.Errorf("Report.Cycles = %d, want %d", out.Report.Cycles, cycles)
			}
			if out.CalibrationCycles != CalibrationPrefix(cycles) {
				t.Errorf("CalibrationCycles = %d, want %d", out.CalibrationCycles, CalibrationPrefix(cycles))
			}
		})
	}
}

// TestEstimateDegeneratesToMeasured pins the exactness contract: when the
// horizon is no longer than the calibration prefix, the estimate is the
// measured cycle-accurate energy (the calibration telescopes).
func TestEstimateDegeneratesToMeasured(t *testing.T) {
	const cycles = 400 // < prefixMin, so prefix == cycles
	ct := paperTopo(t, "")
	az := core.AnalyzerConfig{Style: core.StyleGlobal}
	out, err := Estimate(context.Background(), Spec{Name: "tiny", Topo: ct, Analyzer: az, Cycles: cycles})
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if out.CalibrationCycles != cycles {
		t.Fatalf("CalibrationCycles = %d, want %d", out.CalibrationCycles, cycles)
	}
	ref := cycleAccurate(t, ct, az, nil, cycles)
	if d := divergence(out.Report.TotalEnergy, ref.TotalEnergy); d > 1e-9 {
		t.Errorf("degenerate estimate diverges from measured: est %.6g ref %.6g (%.3g)",
			out.Report.TotalEnergy, ref.TotalEnergy, d)
	}
}

// TestEstimateDeterministic pins cacheability: same spec, same outcome.
func TestEstimateDeterministic(t *testing.T) {
	ct := paperTopo(t, "")
	spec := Spec{Name: "det", Topo: ct, Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal}, Cycles: 10_000}
	a, err := Estimate(context.Background(), spec)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	b, err := Estimate(context.Background(), spec)
	if err != nil {
		t.Fatalf("Estimate (2nd): %v", err)
	}
	if math.Float64bits(a.Report.TotalEnergy) != math.Float64bits(b.Report.TotalEnergy) {
		t.Errorf("estimate not deterministic: %x vs %x",
			math.Float64bits(a.Report.TotalEnergy), math.Float64bits(b.Report.TotalEnergy))
	}
	if a.Beats != b.Beats {
		t.Errorf("beats not deterministic: %d vs %d", a.Beats, b.Beats)
	}
}

// TestEstimateWorkloadPatterns covers the explicit-workload path and the
// correlated data patterns whose expected Hamming distances differ from
// the random default.
func TestEstimateWorkloadPatterns(t *testing.T) {
	const cycles = 16_000
	for _, pat := range []workload.Pattern{workload.PatternRandom, workload.PatternLowActivity, workload.PatternCounter} {
		t.Run(pat.String(), func(t *testing.T) {
			ct := paperTopo(t, "")
			cfg := workload.PaperTestbench(0, int(cycles)/100+2)
			cfg.Pattern = pat
			cfgs := []workload.Config{cfg}
			az := core.AnalyzerConfig{Style: core.StyleGlobal}
			out, err := Estimate(context.Background(), Spec{
				Name: "pat-" + pat.String(), Topo: ct, Analyzer: az, Workloads: cfgs, Cycles: cycles,
			})
			if err != nil {
				t.Fatalf("Estimate: %v", err)
			}
			ref := cycleAccurate(t, ct, az, cfgs, cycles)
			d := divergence(out.Report.TotalEnergy, ref.TotalEnergy)
			t.Logf("pattern %s: divergence %.2f%%", pat, 100*d)
			if d > 0.15 {
				t.Errorf("pattern %s: divergence %.1f%% exceeds 15%%", pat, 100*d)
			}
		})
	}
}

// TestTraitsUnsupported enumerates the capability-table features that
// send a transaction-accuracy request back to cycle accuracy.
func TestTraitsUnsupported(t *testing.T) {
	if r := exec.Blocker(0, exec.PathTLM); r != "" {
		t.Errorf("no features unsupported: %q", r)
	}
	cases := []struct {
		name string
		fs   exec.Feature
	}{
		{"faults", exec.FeatureActiveFaults},
		{"setup", exec.FeatureSetup},
		{"skip-analyzer", exec.FeatureNoAnalyzer},
		{"dpm", exec.AnalyzerFeatures(core.AnalyzerConfig{DPM: &core.DPMConfig{}})},
		{"trace-recorder", exec.AnalyzerFeatures(core.AnalyzerConfig{Trace: new(metrics.Trace)})},
		{"checkpoint", exec.FeatureCheckpoint},
	}
	for _, c := range cases {
		if r := exec.Blocker(c.fs, exec.PathTLM); r == "" {
			t.Errorf("%s: Blocker(TLM) = \"\", want a reason", c.name)
		}
	}
	// The estimator honours private-style instrumentation; only its
	// cycle-accurate prefix run has to pick the event path. Odd clocks,
	// rules-free fault plans and activity recording are no features at
	// all.
	fs := exec.AnalyzerFeatures(core.AnalyzerConfig{Style: core.StylePrivate, RecordActivity: true})
	if r := exec.Blocker(fs, exec.PathTLM); r != "" {
		t.Errorf("features %#x: Blocker(TLM) = %q, want none", fs, r)
	}
}

// TestReportSharesConsistent checks the estimated report's structural
// invariants: shares sum to ~1 and the block breakdown matches the total.
func TestReportSharesConsistent(t *testing.T) {
	ct := paperTopo(t, "")
	out, err := Estimate(context.Background(), Spec{
		Name: "shares", Topo: ct, Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal}, Cycles: 30_000,
	})
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	rep := out.Report
	shares := rep.DataTransferShare + rep.ArbitrationShare + rep.IdleShare
	if math.Abs(shares-1) > 1e-6 {
		t.Errorf("class shares sum to %.6f, want 1", shares)
	}
	blockSum := 0.0
	for _, b := range power.Blocks() {
		blockSum += rep.BlockEnergy[b.String()]
	}
	if divergence(blockSum, rep.TotalEnergy) > 1e-9 {
		t.Errorf("block energies sum to %.6g, total %.6g", blockSum, rep.TotalEnergy)
	}
	if out.Beats == 0 || out.Counts["nonseq"] == 0 {
		t.Errorf("walk produced no traffic estimates: beats=%d counts=%v", out.Beats, out.Counts)
	}
}
