package engine

import (
	"context"
	"math"
	"strings"
	"testing"

	"ahbpower/internal/core"
	"ahbpower/internal/exec"
	"ahbpower/internal/fault"
	"ahbpower/internal/metrics"
	"ahbpower/internal/tlm"
)

func tlmScenario(name string) Scenario {
	return Scenario{
		Name:     name,
		System:   core.PaperSystem(),
		Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal},
		Cycles:   6000,
		Accuracy: AccuracyTransaction,
	}
}

// TestTransactionAccuracyRuns checks the estimator dispatch: a
// transaction-accuracy scenario executes through internal/tlm and reports
// the estimator as its backend and accuracy class.
func TestTransactionAccuracyRuns(t *testing.T) {
	res := RunOne(context.Background(), tlmScenario("tlm-run"))
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if res.Backend != tlm.Name {
		t.Errorf("Backend = %q, want %q", res.Backend, tlm.Name)
	}
	if res.Accuracy != AccuracyTransaction {
		t.Errorf("Accuracy = %q, want %q", res.Accuracy, AccuracyTransaction)
	}
	if res.Report == nil || res.Report.TotalEnergy <= 0 {
		t.Fatalf("estimate produced no report/energy: %+v", res.Report)
	}
	if res.Beats == 0 {
		t.Error("estimate reported zero beats")
	}
	if res.BackendFallback != "" {
		t.Errorf("unexpected fallback: %q", res.BackendFallback)
	}
}

// TestTransactionAccuracyIgnoresActivity checks activity recording keeps
// a transaction-accuracy scenario on the estimator: no path returns the
// activity counters, so the estimate is the one made without them.
func TestTransactionAccuracyIgnoresActivity(t *testing.T) {
	plain := RunOne(context.Background(), tlmScenario("tlm-plain"))
	sc := tlmScenario("tlm-activity")
	sc.Analyzer.RecordActivity = true
	res := RunOne(context.Background(), sc)
	if plain.Err != nil || res.Err != nil {
		t.Fatalf("run: %v / %v", plain.Err, res.Err)
	}
	if res.Backend != tlm.Name || res.Accuracy != AccuracyTransaction || res.BackendFallback != "" {
		t.Fatalf("backend %q accuracy %q fallback %q, want the estimator", res.Backend, res.Accuracy, res.BackendFallback)
	}
	if math.Float64bits(res.Report.TotalEnergy) != math.Float64bits(plain.Report.TotalEnergy) {
		t.Errorf("TotalEnergy %g with activity, %g without", res.Report.TotalEnergy, plain.Report.TotalEnergy)
	}
}

// TestTransactionAccuracyFaultsFallBack pins the ISSUE contract: when a
// fault plan is set, TLM must conservatively fall back to cycle accuracy
// with the reason surfaced in Result.BackendFallback — for every
// arbitration policy.
func TestTransactionAccuracyFaultsFallBack(t *testing.T) {
	for _, policy := range []string{"sticky", "fixed", "rr"} {
		t.Run(policy, func(t *testing.T) {
			sc := tlmScenario("tlm-faults-" + policy)
			topo := sc.Topology()
			topo.Policy = policy
			sc.System = core.SystemConfig{}
			sc.Topo = &topo
			sc.Faults = &fault.Plan{Seed: 7, Rules: []fault.Rule{
				{Kind: fault.KindWaits, Slave: -1, Master: -1, Prob: 0.001},
			}}
			res := RunOne(context.Background(), sc)
			if res.Err != nil {
				t.Fatalf("run: %v", res.Err)
			}
			if res.Accuracy != AccuracyCycle {
				t.Errorf("Accuracy = %q, want conservative %q", res.Accuracy, AccuracyCycle)
			}
			if res.Backend == tlm.Name {
				t.Errorf("faulted scenario ran on the estimator")
			}
			if !strings.Contains(res.BackendFallback, "transaction accuracy:") ||
				!strings.Contains(res.BackendFallback, "fault") {
				t.Errorf("BackendFallback = %q, want a transaction-accuracy fault reason", res.BackendFallback)
			}
			if res.Faults == nil {
				t.Error("fallback run lost the fault stats")
			}
		})
	}
}

// TestTransactionAccuracyUnsupportedFeatures walks the other conservative
// fallbacks and checks each surfaces its reason.
func TestTransactionAccuracyUnsupportedFeatures(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"setup", func(sc *Scenario) { sc.Setup = func(*core.System) error { return nil } }, "Setup"},
		{"trace-recorder", func(sc *Scenario) {
			sc.Analyzer.Trace, _ = metrics.NewTrace(metrics.TraceConfig{Window: 1e-6})
		}, "recorder"},
		{"dpm", func(sc *Scenario) { sc.Analyzer.DPM = &core.DPMConfig{IdleThreshold: 8} }, "DPM"},
		{"skip-analyzer", func(sc *Scenario) { sc.SkipAnalyzer = true }, "analyzer"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := tlmScenario("tlm-" + c.name)
			c.mut(&sc)
			res := RunOne(context.Background(), sc)
			if res.Err != nil {
				t.Fatalf("run: %v", res.Err)
			}
			if res.Backend == tlm.Name {
				t.Fatalf("%s scenario ran on the estimator", c.name)
			}
			if res.Accuracy != AccuracyCycle {
				t.Errorf("Accuracy = %q, want %q", res.Accuracy, AccuracyCycle)
			}
			if !strings.Contains(res.BackendFallback, c.want) {
				t.Errorf("BackendFallback = %q, want it to mention %q", res.BackendFallback, c.want)
			}
		})
	}
}

// TestInvalidAccuracyRejected checks unknown accuracy values fail loudly.
func TestInvalidAccuracyRejected(t *testing.T) {
	sc := tlmScenario("bad-accuracy")
	sc.Accuracy = "burst"
	res := RunOne(context.Background(), sc)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "accuracy") {
		t.Fatalf("Err = %v, want an unknown-accuracy error", res.Err)
	}
}

// TestTransactionAccuracyNotLanePacked checks a lanes hint leaves a
// transaction-accuracy scenario to the estimator, with no fallback
// reason and no lane occupancy: the hint only picks among cycle-accurate
// backends.
func TestTransactionAccuracyNotLanePacked(t *testing.T) {
	scs := make([]Scenario, 4)
	for i := range scs {
		scs[i] = tlmScenario("pack")
		scs[i].Backend = exec.NameLanes
	}
	r := &Runner{Workers: 2}
	results := r.Run(context.Background(), scs)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("scenario %d: %v", i, res.Err)
		}
		if res.Lanes != 0 || res.Backend != tlm.Name || res.BackendFallback != "" {
			t.Errorf("scenario %d: backend %q, fallback %q, lanes %d; want %q, none and 0",
				i, res.Backend, res.BackendFallback, res.Lanes, tlm.Name)
		}
	}
}

// TestTransactionMatchesCycleWithinBudget is the engine-level divergence
// smoke: the estimate lands near the exact result for the same scenario.
func TestTransactionMatchesCycleWithinBudget(t *testing.T) {
	tr := tlmScenario("paired")
	cy := tr
	cy.Accuracy = AccuracyCycle
	rt := RunOne(context.Background(), tr)
	rc := RunOne(context.Background(), cy)
	if rt.Err != nil || rc.Err != nil {
		t.Fatalf("runs failed: tlm=%v cycle=%v", rt.Err, rc.Err)
	}
	et, ec := rt.Report.TotalEnergy, rc.Report.TotalEnergy
	if ec <= 0 {
		t.Fatalf("cycle-accurate energy %v", ec)
	}
	if d := (et - ec) / ec; d > 0.15 || d < -0.15 {
		t.Errorf("estimate diverges %.1f%% from exact (est %.4g, exact %.4g)", 100*d, et, ec)
	}
}
