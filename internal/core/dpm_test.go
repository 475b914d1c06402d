package core

import (
	"strings"
	"testing"

	"ahbpower/internal/workload"
)

func TestDPMDisabledByDefault(t *testing.T) {
	_, an := buildAnalyzed(t, StyleGlobal, 1000)
	if an.DPM() != nil {
		t.Error("DPM estimate must be nil when not configured")
	}
}

func TestDPMObservesGapsAndWakes(t *testing.T) {
	sys, err := NewSystem(PaperSystem())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadPaperWorkload(8000); err != nil {
		t.Fatal(err)
	}
	an, err := Attach(sys, AnalyzerConfig{
		Style: StyleGlobal,
		DPM:   &DPMConfig{IdleThreshold: 4, WakeEnergy: 10e-12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(8000); err != nil {
		t.Fatal(err)
	}
	est := an.DPM()
	if est == nil {
		t.Fatal("estimate missing")
	}
	if est.GatedCycles == 0 {
		t.Error("gap-heavy workload must produce gated cycles")
	}
	if est.Wakeups == 0 {
		t.Error("gating episodes must end in wakeups")
	}
	if est.GrossSaved <= 0 {
		t.Error("gated cycles must save gross energy")
	}
	if est.WakeCost != float64(est.Wakeups)*10e-12 {
		t.Errorf("wake cost %g inconsistent with %d wakeups", est.WakeCost, est.Wakeups)
	}
	if got := est.NetSaved(); got != est.GrossSaved-est.WakeCost {
		t.Errorf("NetSaved=%g", got)
	}
	total := an.Report().TotalEnergy
	if pct := est.SavingsPct(total); pct <= 0 || pct > 50 {
		t.Errorf("savings=%.2f%%, implausible", pct)
	}
	if !strings.Contains(est.String(), "threshold=4") {
		t.Error("String must mention the threshold")
	}
}

func TestDPMThresholdClamped(t *testing.T) {
	d := newDPMState(DPMConfig{IdleThreshold: 0})
	if d.Estimate.Config.IdleThreshold != 1 {
		t.Errorf("threshold clamped to %d, want 1", d.Estimate.Config.IdleThreshold)
	}
}

func TestDPMSavingsPctZeroTotal(t *testing.T) {
	est := DPMEstimate{GrossSaved: 1}
	if est.SavingsPct(0) != 0 {
		t.Error("zero total must yield zero percentage")
	}
}

func TestLoadWorkloadPerMaster(t *testing.T) {
	sys, err := NewSystem(PaperSystem())
	if err != nil {
		t.Fatal(err)
	}
	cfg0 := workload.PaperTestbench(0, 3)
	cfg1 := workload.PaperTestbench(1, 3)
	cfg1.Pattern = workload.PatternCounter
	if err := sys.LoadWorkload(cfg0, cfg1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(3000); err != nil {
		t.Fatal(err)
	}
	if sys.Masters[0].Stats().Beats == 0 || sys.Masters[1].Stats().Beats == 0 {
		t.Error("both masters must transfer")
	}
}

func TestLoadWorkloadSingleConfigFansOut(t *testing.T) {
	sys, err := NewSystem(PaperSystem())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadWorkload(workload.PaperTestbench(0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(2000); err != nil {
		t.Fatal(err)
	}
	// Both masters got traffic (the second with a shifted seed).
	if sys.Masters[0].Stats().Beats == 0 || sys.Masters[1].Stats().Beats == 0 {
		t.Error("single config must fan out to all masters")
	}
}

func TestLoadWorkloadEmptyFails(t *testing.T) {
	sys, err := NewSystem(PaperSystem())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadWorkload(); err == nil {
		t.Error("no configs must fail")
	}
}

func TestLoadWorkloadBadConfigFails(t *testing.T) {
	sys, err := NewSystem(PaperSystem())
	if err != nil {
		t.Fatal(err)
	}
	bad := workload.PaperTestbench(0, 3)
	bad.PairsMin = 0
	if err := sys.LoadWorkload(bad); err == nil {
		t.Error("invalid workload must fail")
	}
}
