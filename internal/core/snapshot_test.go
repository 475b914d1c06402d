package core_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
	"ahbpower/internal/fault"
	"ahbpower/internal/power"
)

// snapFP is the bit-exact fingerprint compared between an uninterrupted
// run and a checkpoint+resume run.
type snapFP struct {
	totalBits  uint64
	blockBits  [4]uint64
	counts     map[string]uint64
	beats      uint64
	cycles     uint64
	violations int
	faults     fault.Stats
	activity   []power.ActivityLine
}

type snapRig struct {
	sys *core.System
	an  *core.Analyzer
	inj *fault.Injector
}

func buildSnapRig(t *testing.T, style core.Style, policy ahb.ArbPolicy, plan *fault.Plan, cycles uint64) *snapRig {
	t.Helper()
	cfg := core.PaperSystem()
	cfg.Policy = policy
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if err := sys.LoadPaperWorkload(cycles); err != nil {
		t.Fatalf("LoadPaperWorkload: %v", err)
	}
	an, err := core.Attach(sys, core.AnalyzerConfig{Style: style, RecordActivity: true})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	r := &snapRig{sys: sys, an: an}
	if plan.Active() {
		inj, err := fault.Attach(sys.Bus, sys.Masters, plan)
		if err != nil {
			t.Fatalf("fault.Attach: %v", err)
		}
		r.inj = inj
		sys.AddSnapshotter("faults", inj)
	}
	sys.AddSnapshotter("analyzer", an)
	return r
}

// step returns the cycle stepper for the named backend ("event" or
// "compiled"); for compiled it builds the flat stepper, which must
// happen after any restore.
func (r *snapRig) step(t *testing.T, backend string) func(uint64) error {
	t.Helper()
	if backend == "compiled" {
		flat, err := r.sys.Bus.NewFlat()
		if err != nil {
			t.Fatalf("NewFlat: %v", err)
		}
		return flat.RunCycles
	}
	return func(c uint64) error { return r.sys.K.RunCycles(r.sys.Bus.Clk, c) }
}

func (r *snapRig) fingerprint() snapFP {
	fp := snapFP{
		totalBits:  math.Float64bits(r.an.FSM().TotalEnergy()),
		counts:     r.sys.Monitor.Counts(),
		cycles:     r.sys.Bus.Cycles(),
		violations: len(r.sys.Monitor.Errors()),
		activity:   r.an.Activity().Report(),
	}
	bd := r.an.Breakdown()
	fp.blockBits[0] = math.Float64bits(bd.Energy(0))
	fp.blockBits[1] = math.Float64bits(bd.Energy(1))
	fp.blockBits[2] = math.Float64bits(bd.Energy(2))
	fp.blockBits[3] = math.Float64bits(bd.Energy(3))
	for _, m := range r.sys.Masters {
		fp.beats += m.Stats().Beats
	}
	if r.inj != nil {
		fp.faults = r.inj.Stats()
	}
	return fp
}

// TestSnapshotResumeEquivalence is the golden suite: for every
// style x policy x fault-plan combination, a run checkpointed at cycle N
// and resumed on every backend pairing must be Float64bits-identical to
// the uninterrupted run, activity counts included.
func TestSnapshotResumeEquivalence(t *testing.T) {
	const cycles, ckptAt = 3000, 1200
	styles := []core.Style{core.StyleGlobal, core.StyleLocal, core.StylePrivate}
	policies := []ahb.ArbPolicy{ahb.PolicySticky, ahb.PolicyRoundRobin}
	plans := []*fault.Plan{nil, fault.RandomPlan(7), fault.RandomPlan(20260807)}

	for _, style := range styles {
		for _, policy := range policies {
			for pi, plan := range plans {
				name := fmt.Sprintf("%s/%s/plan%d", style, policy, pi)
				t.Run(name, func(t *testing.T) {
					backends := []string{"event", "compiled"}
					if style == core.StylePrivate {
						// Private-style delta instrumentation is event-only,
						// matching the exec traits gate.
						backends = []string{"event"}
					}
					// Uninterrupted control run per backend.
					control := map[string]snapFP{}
					for _, be := range backends {
						rig := buildSnapRig(t, style, policy, plan, cycles)
						if err := rig.sys.RunContextStepped(nil, cycles, rig.step(t, be)); err != nil {
							t.Fatalf("control %s: %v", be, err)
						}
						control[be] = rig.fingerprint()
					}
					for _, capBE := range backends {
						for _, resBE := range backends {
							// Capture at cycle ckptAt on capBE.
							rig := buildSnapRig(t, style, policy, plan, cycles)
							if err := rig.sys.RunContextStepped(nil, ckptAt, rig.step(t, capBE)); err != nil {
								t.Fatalf("prefix on %s: %v", capBE, err)
							}
							sn, err := rig.sys.CaptureSnapshot()
							if err != nil {
								t.Fatalf("capture on %s: %v", capBE, err)
							}
							if sn.Cycle != ckptAt {
								t.Fatalf("snapshot at cycle %d, want %d", sn.Cycle, ckptAt)
							}
							blob, err := sn.Encode()
							if err != nil {
								t.Fatalf("encode: %v", err)
							}
							dec, err := core.DecodeSnapshot(blob)
							if err != nil {
								t.Fatalf("decode: %v", err)
							}
							// Resume on resBE in a fresh twin.
							twin := buildSnapRig(t, style, policy, plan, cycles)
							if err := twin.sys.RestoreSnapshot(dec); err != nil {
								t.Fatalf("restore: %v", err)
							}
							if err := twin.sys.RunContextStepped(nil, cycles-ckptAt, twin.step(t, resBE)); err != nil {
								t.Fatalf("resume on %s: %v", resBE, err)
							}
							got, want := twin.fingerprint(), control[resBE]
							if !reflect.DeepEqual(got, want) {
								t.Errorf("capture=%s resume=%s: resumed run diverged:\n got %+v\nwant %+v", capBE, resBE, got, want)
							}
						}
					}
				})
			}
		}
	}
}

// TestSnapshotCheckpointHook proves the RunContextStepped hook fires at
// chunk boundaries and that resuming from the last hook-captured
// snapshot reproduces the uninterrupted run.
func TestSnapshotCheckpointHook(t *testing.T) {
	const cycles = 4000
	control := buildSnapRig(t, core.StyleGlobal, ahb.PolicySticky, nil, cycles)
	if err := control.sys.Run(cycles); err != nil {
		t.Fatalf("control: %v", err)
	}

	rig := buildSnapRig(t, core.StyleGlobal, ahb.PolicySticky, nil, cycles)
	var snaps []*core.Snapshot
	rig.sys.SetCheckpointHook(1024, func(done uint64) error {
		sn, err := rig.sys.CaptureSnapshot()
		if err != nil {
			return err
		}
		if sn.Cycle != done {
			return fmt.Errorf("hook at done=%d captured cycle %d", done, sn.Cycle)
		}
		snaps = append(snaps, sn)
		return nil
	})
	if err := rig.sys.Run(cycles); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if len(snaps) == 0 {
		t.Fatal("checkpoint hook never fired")
	}
	last := snaps[len(snaps)-1]
	if last.Cycle == 0 || last.Cycle >= cycles {
		t.Fatalf("last checkpoint at cycle %d, want inside (0,%d)", last.Cycle, cycles)
	}
	// The checkpointed run itself must match the control bit-exactly.
	if got, want := rig.fingerprint(), control.fingerprint(); !reflect.DeepEqual(got, want) {
		t.Errorf("checkpointed run diverged from control:\n got %+v\nwant %+v", got, want)
	}

	twin := buildSnapRig(t, core.StyleGlobal, ahb.PolicySticky, nil, cycles)
	if err := twin.sys.RestoreSnapshot(last); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := twin.sys.Run(cycles - last.Cycle); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got, want := twin.fingerprint(), control.fingerprint(); !reflect.DeepEqual(got, want) {
		t.Errorf("hook-resumed run diverged from control:\n got %+v\nwant %+v", got, want)
	}
}

// TestSnapshotDPMMismatch checks the analyzer refuses a snapshot whose
// DPM estimator presence or configuration differs from its own, and one
// that disagrees with it on activity recording.
func TestSnapshotDPMMismatch(t *testing.T) {
	type analyzer struct {
		dpm      *core.DPMConfig
		activity bool
	}
	build := func(cfg analyzer) *core.System {
		sys, err := core.NewSystem(core.PaperSystem())
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadPaperWorkload(1200); err != nil {
			t.Fatal(err)
		}
		an, err := core.Attach(sys, core.AnalyzerConfig{DPM: cfg.dpm, RecordActivity: cfg.activity})
		if err != nil {
			t.Fatal(err)
		}
		sys.AddSnapshotter("analyzer", an)
		return sys
	}
	th4, th8 := &core.DPMConfig{IdleThreshold: 4}, &core.DPMConfig{IdleThreshold: 8}
	for _, c := range []struct{ from, to analyzer }{
		{analyzer{dpm: th4}, analyzer{}}, {analyzer{}, analyzer{dpm: th4}},
		{analyzer{dpm: th4}, analyzer{dpm: th8}}, {analyzer{dpm: th4}, analyzer{dpm: th4}},
		{analyzer{activity: true}, analyzer{}}, {analyzer{}, analyzer{activity: true}},
		{analyzer{activity: true}, analyzer{activity: true}},
	} {
		src := build(c.from)
		if err := src.Run(600); err != nil {
			t.Fatal(err)
		}
		sn, err := src.CaptureSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		err = build(c.to).RestoreSnapshot(sn)
		if want := c.from != c.to; (err != nil) != want {
			t.Errorf("restore %+v onto %+v: err = %v, want refused = %v", c.from, c.to, err, want)
		}
	}
}
