package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
	"ahbpower/internal/exec"
	"ahbpower/internal/fault"
	"ahbpower/internal/metrics"
)

// ckptFP is the bit-exact fingerprint of a Result used by the resume
// golden suite; wall-clock fields are deliberately excluded.
type ckptFP struct {
	totalBits  uint64
	stats      string
	counts     map[string]uint64
	beats      uint64
	violations int
	faults     *fault.Stats
	dpm        *core.DPMEstimate
}

func resultFP(t *testing.T, res Result) ckptFP {
	t.Helper()
	if res.Err != nil {
		t.Fatalf("scenario %q failed: %v", res.Scenario.Name, res.Err)
	}
	return ckptFP{
		totalBits:  math.Float64bits(res.Report.TotalEnergy),
		stats:      fmt.Sprintf("%+v", res.Stats),
		counts:     res.Counts,
		beats:      res.Beats,
		violations: len(res.Violations),
		faults:     res.Faults,
		dpm:        res.DPM,
	}
}

// errCrash is the sentinel a Save hook returns to emulate a crash right
// after a checkpoint was persisted.
var errCrash = errors.New("simulated crash after checkpoint")

// TestCheckpointResumeEquivalence is the engine-level golden suite: a
// scenario "crashed" right after its first checkpoint and resumed from
// that snapshot must produce a Result Float64bits-identical to the
// uninterrupted run, for every eligible backend, analyzer style and
// fault-plan combination. DPM and odd-period scenarios resume on both
// backends, whichever saved the snapshot, and so do scenarios recording
// activity.
func TestCheckpointResumeEquivalence(t *testing.T) {
	type combo struct {
		name    string
		backend string
		style   core.Style
		faults  *fault.Plan
		mutate  func(*Scenario)
		// cross resumes on both backends, each of which must run it.
		cross bool
	}
	var combos []combo
	for _, be := range []string{exec.NameEvent, exec.NameCompiled, exec.NameAuto} {
		for _, style := range []core.Style{core.StyleGlobal, core.StyleLocal, core.StylePrivate} {
			for pi, plan := range []*fault.Plan{nil, fault.RandomPlan(11)} {
				combos = append(combos, combo{name: fmt.Sprintf("%s/%s/plan%d", be, style, pi),
					backend: be, style: style, faults: plan})
			}
		}
	}
	extras := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"dpm", func(sc *Scenario) { sc.Analyzer.DPM = &core.DPMConfig{IdleThreshold: 4, WakeEnergy: 1e-12} }},
		{"odd-period", func(sc *Scenario) { sc.System.ClockPeriod = 10_001 }},
		{"activity", func(sc *Scenario) { sc.Analyzer.RecordActivity = true }},
	}
	for _, x := range extras {
		for _, be := range []string{exec.NameEvent, exec.NameCompiled} {
			combos = append(combos, combo{name: x.name + "/" + be, backend: be, style: core.StyleGlobal,
				mutate: x.mutate, cross: true})
		}
	}
	for _, c := range combos {
		t.Run(c.name, func(t *testing.T) {
			base := Scenario{
				Name:     "ckpt-golden",
				System:   core.PaperSystem(),
				Analyzer: core.AnalyzerConfig{Style: c.style},
				Cycles:   2600,
				Backend:  c.backend,
				Faults:   c.faults,
			}
			if c.mutate != nil {
				c.mutate(&base)
			}
			control := RunOne(context.Background(), base)
			want := resultFP(t, control)

			// "Crash" after the first persisted checkpoint.
			var blob []byte
			var at uint64
			crashed := base
			crashed.Checkpoint = &CheckpointConfig{Every: 512, Save: func(cycle uint64, snapshot []byte) error {
				blob, at = snapshot, cycle
				return errCrash
			}}
			res := RunOne(context.Background(), crashed)
			if res.Err == nil || !errors.Is(res.Err, errCrash) {
				t.Fatalf("crashed run: err = %v, want %v", res.Err, errCrash)
			}
			if len(blob) == 0 || at == 0 || at >= base.Cycles {
				t.Fatalf("no usable checkpoint captured (cycle %d, %d bytes)", at, len(blob))
			}

			resumed := base
			resumed.Checkpoint = &CheckpointConfig{Resume: blob}
			resumeOn := []string{c.backend}
			if c.cross {
				resumeOn = []string{exec.NameEvent, exec.NameCompiled}
			}
			for _, be := range resumeOn {
				resumed.Backend = be
				got := RunOne(context.Background(), resumed)
				if got.ResumedFrom != at {
					t.Errorf("resumed on %s: ResumedFrom = %d, want %d", be, got.ResumedFrom, at)
				}
				if c.cross && got.Backend != be {
					t.Errorf("resumed on %s: ran on %q (fallback %q)", be, got.Backend, got.BackendFallback)
				}
				if fp := resultFP(t, got); !reflect.DeepEqual(fp, want) {
					t.Errorf("resumed on %s: result diverged:\n got %+v\nwant %+v", be, fp, want)
				}
			}
			// The checkpoint option must never change the cache identity.
			ck, ok1 := base.CanonicalKey()
			rk, ok2 := resumed.CanonicalKey()
			if !ok1 || !ok2 || ck != rk {
				t.Errorf("CanonicalKey differs under Checkpoint: %q (ok=%v) vs %q (ok=%v)", ck, ok1, rk, ok2)
			}
		})
	}
}

// TestCheckpointFallbacks verifies the surfaced-reason contract for every
// route that cannot checkpoint: ineligible analyzers run without
// snapshots, a lanes hint checkpoints on the compiled stepper, and the
// TLM executor falls back to cycle accuracy.
func TestCheckpointFallbacks(t *testing.T) {
	base := Scenario{
		Name:     "ckpt-fallback",
		System:   core.PaperSystem(),
		Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal},
		Cycles:   600,
	}
	noopSave := func(uint64, []byte) error { return nil }

	traced := func(sc *Scenario) {
		tr, err := metrics.NewTrace(metrics.TraceConfig{Window: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		sc.Analyzer.Trace = tr
	}
	t.Run("trace-ineligible", func(t *testing.T) {
		sc := base
		traced(&sc)
		sc.Checkpoint = &CheckpointConfig{Save: func(uint64, []byte) error {
			t.Error("Save must not run for an ineligible scenario")
			return nil
		}}
		res := RunOne(context.Background(), sc)
		if res.Err != nil {
			t.Fatalf("run: %v", res.Err)
		}
		if res.CheckpointFallback == "" {
			t.Error("CheckpointFallback empty, want surfaced reason")
		}
	})
	t.Run("trace-resume-error", func(t *testing.T) {
		sc := base
		traced(&sc)
		sc.Checkpoint = &CheckpointConfig{Resume: []byte("{}")}
		if res := RunOne(context.Background(), sc); res.Err == nil {
			t.Error("resuming an ineligible scenario must fail")
		}
	})
	t.Run("lanes-fallback", func(t *testing.T) {
		sc := base
		sc.Backend = exec.NameLanes
		saved := 0
		sc.Checkpoint = &CheckpointConfig{Every: 256, Save: func(uint64, []byte) error { saved++; return nil }}
		res := RunOne(context.Background(), sc)
		if res.Err != nil {
			t.Fatalf("run: %v", res.Err)
		}
		if res.Backend != exec.NameCompiled || res.BackendFallback != LanesRetired || res.CheckpointFallback != "" || saved == 0 {
			t.Errorf("lanes + checkpoint: backend %q, fallback %q, checkpoint fallback %q, %d snapshots; want compiled, %q and snapshots",
				res.Backend, res.BackendFallback, res.CheckpointFallback, saved, LanesRetired)
		}
	})
	t.Run("tlm-fallback", func(t *testing.T) {
		sc := base
		sc.Accuracy = AccuracyTransaction
		sc.Checkpoint = &CheckpointConfig{Save: noopSave}
		res := RunOne(context.Background(), sc)
		if res.Err != nil {
			t.Fatalf("run: %v", res.Err)
		}
		if res.Accuracy != AccuracyCycle || res.BackendFallback == "" {
			t.Errorf("transaction + checkpoint: accuracy %q, fallback %q; want conservative cycle fallback",
				res.Accuracy, res.BackendFallback)
		}
	})
}

// snapshotGoldenDigest is the SHA-256 over every snapshot blob the four
// scenarios of TestCheckpointSnapshotGolden save. It pins the on-disk
// checkpoint format: a daemon must resume the checkpoints an older
// binary with the same core.SnapshotVersion left in its state dir, so a
// change here needs a SnapshotVersion bump, not a new digest.
const snapshotGoldenDigest = "8e13c73500f52243480fb7bfb37c0f8e5f2794df681592b24795119538f04ce2"

// TestCheckpointSnapshotGolden hashes the snapshots persisted by four
// fixed scenarios that together reach every checkpointed component: the
// bus, masters, slaves and monitor; the analyzer in all three styles with
// its DPM streak; and the fault injector's interceptors.
func TestCheckpointSnapshotGolden(t *testing.T) {
	paper := func(policy ahb.ArbPolicy) core.SystemConfig {
		cfg := core.PaperSystem()
		cfg.SlaveWaits = 1
		cfg.Policy = policy
		return cfg
	}
	scenarios := []Scenario{
		{Name: "global-sticky-compiled", System: paper(ahb.PolicySticky),
			Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal}, Backend: exec.NameCompiled},
		{Name: "local-dpm-rr", System: paper(ahb.PolicyRoundRobin),
			Analyzer: core.AnalyzerConfig{Style: core.StyleLocal, DPM: &core.DPMConfig{IdleThreshold: 4, WakeEnergy: 1e-12}}},
		{Name: "private-fixed", System: paper(ahb.PolicyFixed),
			Analyzer: core.AnalyzerConfig{Style: core.StylePrivate}},
		{Name: "faults", System: paper(ahb.PolicySticky),
			Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal}, Faults: fault.RandomPlan(7)},
	}
	h := sha256.New()
	for _, sc := range scenarios {
		sc.Cycles = 3000
		saved := 0
		sc.Checkpoint = &CheckpointConfig{Every: 1024, Save: func(cycle uint64, snapshot []byte) error {
			saved++
			h.Write(snapshot)
			return nil
		}}
		if res := RunOne(context.Background(), sc); res.Err != nil {
			t.Fatalf("%s: %v", sc.Name, res.Err)
		}
		if saved == 0 {
			t.Fatalf("%s saved no snapshot", sc.Name)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != snapshotGoldenDigest {
		t.Errorf("snapshot digest %s, want %s: the checkpoint encoding moved", got, snapshotGoldenDigest)
	}
}
