package main

import (
	"io"
	"testing"
	"time"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/fault"
)

// TestSoakSmallSweepClean runs a compressed soak — fewer seeds, shorter
// runs — and demands a perfectly clean report: every invariant the full
// CI soak checks must already hold at this scale.
func TestSoakSmallSweepClean(t *testing.T) {
	cfg := config{seeds: 6, seed: 100, cycles: 600, timeout: 30 * time.Second}
	rep := runSoak(cfg, io.Discard)
	if len(rep.Violations) != 0 {
		t.Fatalf("soak violations: %v", rep.Violations)
	}
	if !rep.ReplayOK || !rep.BackendsOK || !rep.TLMOK || !rep.ControlsOK {
		t.Errorf("replay_ok=%v backends_ok=%v tlm_ok=%v controls_ok=%v, want all true",
			rep.ReplayOK, rep.BackendsOK, rep.TLMOK, rep.ControlsOK)
	}
	if rep.Scenarios != 6 {
		t.Errorf("scenarios=%d, want 6", rep.Scenarios)
	}
}

// TestFingerprintDiscriminates guards the replay check itself: the
// fingerprint must be order-stable yet change when an outcome changes.
func TestFingerprintDiscriminates(t *testing.T) {
	res := []engine.Result{{Scenario: engine.Scenario{Name: "a"}, Beats: 10, Attempts: 1}}
	base := string(fingerprint(res))
	if base != string(fingerprint(res)) {
		t.Fatal("fingerprint not deterministic")
	}
	res[0].Beats = 11
	if base == string(fingerprint(res)) {
		t.Error("fingerprint blind to a beat-count change")
	}
}

// TestCheckResultFlagsFailures exercises the violation paths directly.
func TestCheckResultFlagsFailures(t *testing.T) {
	plan := &fault.Plan{Seed: 1}
	res := &engine.Result{Scenario: engine.Scenario{Name: "x"},
		Err: &engine.ScenarioError{Name: "x", Class: engine.ClassPermanent, Err: io.ErrUnexpectedEOF}}
	if v := checkResult(res, plan); len(v) != 1 {
		t.Errorf("failed scenario must yield one violation, got %v", v)
	}
	res = &engine.Result{Scenario: engine.Scenario{Name: "x"}, Attempts: 1}
	if v := checkResult(res, plan); len(v) == 0 {
		t.Error("successful result with no report must flag missing conservation evidence")
	}
}

// TestCheckResultViolationsNeedFlips pins the monitor rule: forced
// responses must leave the monitor clean, only flip rules may trip it.
func TestCheckResultViolationsNeedFlips(t *testing.T) {
	res := &engine.Result{Scenario: engine.Scenario{Name: "x"}, Attempts: 1, Report: &core.Report{},
		Faults: &fault.Stats{Errors: 1}, Violations: []ahb.ProtocolError{{Rule: "two-cycle-response"}}}
	forced := &fault.Plan{Seed: 1, Rules: []fault.Rule{{Kind: fault.KindError, Slave: -1, Master: -1}}}
	if v := checkResult(res, forced); len(v) != 1 {
		t.Errorf("violation under a forced-response plan: got %v, want one finding", v)
	}
	flipped := &fault.Plan{Seed: 1, Rules: []fault.Rule{{Kind: fault.KindAddrFlip, Slave: -1, Master: -1}}}
	if v := checkResult(res, flipped); len(v) != 0 {
		t.Errorf("violation under an addr-flip plan must pass, got %v", v)
	}
}
