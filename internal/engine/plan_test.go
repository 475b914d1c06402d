package engine

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"
	"testing"
	"time"

	"ahbpower/internal/core"
	"ahbpower/internal/exec"
	"ahbpower/internal/fault"
	"ahbpower/internal/lane"
	"ahbpower/internal/metrics"
	"ahbpower/internal/power"
	"ahbpower/internal/tlm"
)

// planKnob switches one scenario feature on.
type planKnob struct {
	name    string
	feature exec.Feature
	apply   func(*Scenario)
}

// planKnobs are the scenario settings behind the capability table's
// features, in table order. The fault-plan and checkpoint knobs are the
// runnable forms: a plan without rules, which contributes no feature, and
// a Save-only checkpoint.
func planKnobs(t *testing.T) []planKnob {
	return []planKnob{
		{"setup", exec.FeatureSetup, func(sc *Scenario) { sc.Setup = func(*core.System) error { return nil } }},
		{"timeout", exec.FeatureTimeout, func(sc *Scenario) { sc.Timeout = time.Minute }},
		{"active-faults", exec.FeatureActiveFaults, func(sc *Scenario) {
			sc.Faults = &fault.Plan{Seed: 7, Rules: []fault.Rule{{Kind: fault.KindWaits, Slave: -1, Master: -1, Prob: 0.01}}}
		}},
		{"fault-plan", 0, func(sc *Scenario) {
			if sc.Faults == nil {
				sc.Faults = &fault.Plan{}
			}
		}},
		{"no-analyzer", exec.FeatureNoAnalyzer, func(sc *Scenario) { sc.SkipAnalyzer = true }},
		{"dpm", exec.FeatureDPM, func(sc *Scenario) { sc.Analyzer.DPM = &core.DPMConfig{IdleThreshold: 8} }},
		{"private", exec.FeaturePrivateStyle, func(sc *Scenario) { sc.Analyzer.Style = core.StylePrivate }},
		// Activity recording contributes no feature: it must never change
		// a plan.
		{"activity", 0, func(sc *Scenario) { sc.Analyzer.RecordActivity = true }},
		{"recorder", exec.FeatureTraceRecorder, func(sc *Scenario) {
			tr, err := metrics.NewTrace(metrics.TraceConfig{Window: 1e-6})
			if err != nil {
				t.Fatal(err)
			}
			sc.Analyzer.Trace = tr
		}},
		{"checkpoint", exec.FeatureCheckpoint, func(sc *Scenario) {
			sc.Checkpoint = &CheckpointConfig{Save: func(uint64, []byte) error { return nil }}
		}},
	}
}

// analyzerFeatures are the features an attached analyzer contributes;
// SkipAnalyzer masks them.
const analyzerFeatures = exec.FeatureDPM | exec.FeaturePrivateStyle | exec.FeatureTraceRecorder

var (
	planHints      = []string{"", exec.NameEvent, exec.NameCompiled, exec.NameAuto, exec.NameLanes}
	planAccuracies = []string{AccuracyCycle, AccuracyTransaction}
)

func planBase() Scenario {
	return Scenario{
		Name:     "plan",
		System:   core.PaperSystem(),
		Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal},
		Cycles:   520,
	}
}

// requestedPath returns the path a scenario asks for and its table bit
// (0 for the event kernel, which nothing blocks).
func requestedPath(sc *Scenario) (string, exec.Path) {
	if sc.Accuracy == AccuracyTransaction {
		return tlm.Name, exec.PathTLM
	}
	switch sc.Backend {
	case exec.NameCompiled, exec.NameAuto:
		return exec.NameCompiled, exec.PathCompiled
	case exec.NameLanes:
		return lane.Name, exec.PathLanes
	}
	return exec.NameEvent, 0
}

// TestPlanExhaustive enumerates every feature combination — the boolean
// knobs, fault plan {none, rules-free, active} and checkpoint {none,
// save, resume} — under every hint and accuracy, and checks the plan
// against the capability table: no chosen path or armed checkpoint is
// blocked by a present feature, a fallback reason is set exactly when the
// requested path was not taken and names its first blocker in table
// order, a lanes fallback lands on the event kernel, resuming a
// checkpoint-blocked scenario is an error, and every analyzer the plan
// arms for checkpointing passes the analyzer's own snapshot guard.
// Activity recording must leave every plan as it is without it.
func TestPlanExhaustive(t *testing.T) {
	var boolKnobs []planKnob
	for _, k := range planKnobs(t) {
		switch k.name {
		case "active-faults", "fault-plan", "checkpoint":
		default:
			boolKnobs = append(boolKnobs, k)
		}
	}
	faultPlans := []struct {
		plan *fault.Plan
		fs   exec.Feature
	}{
		{nil, 0},
		{&fault.Plan{Seed: 1}, 0},
		{&fault.Plan{Seed: 3, Rules: []fault.Rule{{Kind: fault.KindWaits, Slave: -1, Master: -1, Prob: 0.01}}},
			exec.FeatureActiveFaults},
	}
	checkpoints := []*CheckpointConfig{
		nil,
		{Save: func(uint64, []byte) error { return nil }},
		{Resume: []byte("{}")},
	}
	rows := 0
	for mask := 0; mask < 1<<len(boolKnobs); mask++ {
		for _, fp := range faultPlans {
			for _, ck := range checkpoints {
				sc := planBase()
				var want exec.Feature
				for i, k := range boolKnobs {
					if mask&(1<<i) != 0 {
						k.apply(&sc)
						want |= k.feature
					}
				}
				if want&exec.FeatureNoAnalyzer != 0 {
					want &^= analyzerFeatures
				}
				sc.Faults = fp.plan
				want |= fp.fs
				if sc.Checkpoint = ck; ck != nil {
					want |= exec.FeatureCheckpoint
				}
				if got := sc.features(); got != want {
					t.Fatalf("mask %#x: features %#x, want %#x", mask, got, want)
				}
				for _, acc := range planAccuracies {
					for _, hint := range planHints {
						sc.Accuracy, sc.Backend = acc, hint
						checkPlan(t, &sc, want)
						if sc.Analyzer.RecordActivity {
							twin := sc
							twin.Analyzer.RecordActivity = false
							p, err := sc.Plan()
							tp, terr := twin.Plan()
							if p != tp || (err == nil) != (terr == nil) {
								t.Fatalf("mask %#x hint %q accuracy %q: activity recording changed the plan: %+v (%v) vs %+v (%v)",
									mask, hint, acc, p, err, tp, terr)
							}
						}
						rows++
					}
					sc.Backend = "turbo"
					if _, err := sc.Plan(); err == nil {
						t.Fatalf("unknown backend accepted at %s accuracy", acc)
					}
				}
			}
		}
	}
	if rows != 1152*len(planHints)*len(planAccuracies) {
		t.Fatalf("enumerated %d rows", rows)
	}
}

// TestPlanRefusesInvalidAnalyzer checks every path refuses meaningless
// analyzer constants, lanes and the estimator included, which never reach
// core.Attach. A skipped analyzer is not checked.
func TestPlanRefusesInvalidAnalyzer(t *testing.T) {
	sc := planBase()
	sc.Analyzer.Tech = power.Tech{VDD: 1.2}
	for _, acc := range planAccuracies {
		for _, hint := range planHints {
			sc.Accuracy, sc.Backend = acc, hint
			if p, err := sc.Plan(); err == nil {
				t.Errorf("hint %q accuracy %q: planned %+v", hint, acc, p)
			}
		}
	}
	sc.SkipAnalyzer = true
	if _, err := sc.Plan(); err != nil {
		t.Errorf("skipped analyzer: %v", err)
	}
}

func checkPlan(t *testing.T, sc *Scenario, fs exec.Feature) {
	t.Helper()
	id := fmt.Sprintf("features %#x hint %q accuracy %q", fs, sc.Backend, sc.Accuracy)
	ckptBlocker := exec.Blocker(fs, exec.PathCheckpoint)
	p, err := sc.Plan()
	if sc.Checkpoint != nil && len(sc.Checkpoint.Resume) > 0 && ckptBlocker != "" {
		if err == nil {
			t.Fatalf("%s: resuming a checkpoint-blocked scenario planned %+v", id, p)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	pathBits := map[string]exec.Path{exec.NameCompiled: exec.PathCompiled, lane.Name: exec.PathLanes, tlm.Name: exec.PathTLM}
	if bit, ok := pathBits[p.Path]; ok {
		if r := exec.Blocker(fs, bit); r != "" {
			t.Fatalf("%s: chose %s despite %q", id, p.Path, r)
		}
	} else if p.Path != exec.NameEvent {
		t.Fatalf("%s: unknown path %q", id, p.Path)
	}
	if (p.Accuracy == AccuracyTransaction) != (p.Path == tlm.Name) {
		t.Fatalf("%s: accuracy %q on path %s", id, p.Accuracy, p.Path)
	}
	want, bit := requestedPath(sc)
	switch {
	case p.Path == want && p.BackendFallback != "":
		t.Fatalf("%s: took %s but reported fallback %q", id, want, p.BackendFallback)
	case p.Path != want:
		reason := exec.Blocker(fs, bit)
		if bit == exec.PathTLM {
			reason = "transaction accuracy: " + reason
			if p.Path == lane.Name {
				t.Fatalf("%s: a transaction request ran on lanes", id)
			}
		}
		if p.BackendFallback != reason || exec.Blocker(fs, bit) == "" {
			t.Fatalf("%s: fallback %q from %s, want %q", id, p.BackendFallback, want, reason)
		}
		if bit == exec.PathLanes && p.Path != exec.NameEvent {
			t.Fatalf("%s: lanes fallback ran on %s", id, p.Path)
		}
	}
	if sc.Checkpoint == nil {
		if p.Checkpoint || p.CheckpointFallback != "" {
			t.Fatalf("%s: no checkpoint requested but plan %+v", id, p)
		}
		return
	}
	if p.Checkpoint != (ckptBlocker == "") || p.CheckpointFallback != ckptBlocker {
		t.Fatalf("%s: checkpoint armed=%v fallback %q, blocker %q", id, p.Checkpoint, p.CheckpointFallback, ckptBlocker)
	}
	if p.Checkpoint && !sc.SkipAnalyzer {
		if r := sc.Analyzer.SnapshotUnsupported(); r != "" {
			t.Fatalf("%s: plan arms checkpointing but the analyzer refuses snapshots: %q", id, r)
		}
	}
}

// TestRunOneFollowsPlan runs every combination of at most two features
// under every hint and accuracy and checks RunOne's Result reports exactly
// what Plan decided: path, accuracy, lane occupancy, both fallback
// reasons, and snapshots taken only when the plan armed them.
func TestRunOneFollowsPlan(t *testing.T) {
	knobs := planKnobs(t)
	var combos [][]int
	for mask := 0; mask < 1<<len(knobs); mask++ {
		if bits.OnesCount(uint(mask)) <= 2 {
			var idx []int
			for i := range knobs {
				if mask&(1<<i) != 0 {
					idx = append(idx, i)
				}
			}
			combos = append(combos, idx)
		}
	}
	for _, idx := range combos {
		for _, acc := range planAccuracies {
			for _, hint := range planHints {
				sc := planBase()
				name := ""
				for _, i := range idx {
					knobs[i].apply(&sc)
					name += knobs[i].name + "+"
				}
				sc.Accuracy, sc.Backend = acc, hint
				var saved atomic.Int32
				if sc.Checkpoint != nil {
					sc.Checkpoint.Save = func(uint64, []byte) error { saved.Add(1); return nil }
				}
				id := fmt.Sprintf("%s hint %q accuracy %q", name, hint, acc)
				p, err := sc.Plan()
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				res := RunOne(context.Background(), sc)
				if res.Err != nil {
					t.Fatalf("%s: %v", id, res.Err)
				}
				wantLanes := 0
				if p.Path == lane.Name {
					wantLanes = 1
				}
				if res.Backend != p.Path || res.Accuracy != p.Accuracy || res.Lanes != wantLanes ||
					res.BackendFallback != p.BackendFallback || res.CheckpointFallback != p.CheckpointFallback {
					t.Fatalf("%s: result backend=%q accuracy=%q lanes=%d fallback=%q ckpt=%q; plan %+v",
						id, res.Backend, res.Accuracy, res.Lanes, res.BackendFallback, res.CheckpointFallback, p)
				}
				if (saved.Load() > 0) != p.Checkpoint {
					t.Fatalf("%s: %d snapshots saved, plan armed=%v", id, saved.Load(), p.Checkpoint)
				}
			}
		}
	}
}
