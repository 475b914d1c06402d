package core

import (
	"encoding/json"
	"fmt"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/power"
	"ahbpower/internal/sim"
)

// SnapshotVersion is bumped whenever the snapshot layout changes; a
// restored snapshot must carry the running binary's version.
const SnapshotVersion = 1

// Snapshotter is the seam for component state that lives outside the
// System proper (the power analyzer, a compiled fault injector): anything
// registered via System.AddSnapshotter is captured into — and restored
// from — the system snapshot under its registration name. Capture and
// restore pair across processes: restore runs on a freshly constructed
// component in a new binary, with only the serialized blob carried over.
type Snapshotter interface {
	CaptureSnapshot() (json.RawMessage, error)
	RestoreSnapshot(json.RawMessage) error
}

// Snapshot is the serialized state of a mid-run system at a settled
// cycle boundary. Restoring it onto a deterministically rebuilt twin
// (same topology, same workloads, same attachments) continues the run
// bit-exactly: energies are carried as Float64bits and PRNG streams as
// draw counts, so a resumed run is indistinguishable from one that never
// stopped.
type Snapshot struct {
	Version int `json:"version"`
	// Cycle is the number of bus clock cycles completed at capture.
	Cycle   uint64                 `json:"cycle"`
	Signals []sim.SignalValue      `json:"signals"`
	Bus     ahb.BusState           `json:"bus"`
	Masters []ahb.MasterState      `json:"masters"`
	Default *ahb.MasterState       `json:"default,omitempty"`
	Slaves  []ahb.MemorySlaveState `json:"slaves"`
	Monitor ahb.MonitorState       `json:"monitor"`
	// Extra holds the registered Snapshotters' blobs by name.
	Extra map[string]json.RawMessage `json:"extra,omitempty"`
}

// Encode serializes the snapshot to its canonical JSON form.
func (sn *Snapshot) Encode() ([]byte, error) { return json.Marshal(sn) }

// DecodeSnapshot parses a serialized snapshot and checks its version.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	var sn Snapshot
	if err := json.Unmarshal(b, &sn); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	if sn.Version != SnapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, this binary writes %d", sn.Version, SnapshotVersion)
	}
	return &sn, nil
}

// AddSnapshotter registers extra component state under name. Names must
// be unique; capture and restore match registrations by name, and a
// restore fails when the snapshot's name set differs from the rebuilt
// system's.
func (s *System) AddSnapshotter(name string, sn Snapshotter) {
	s.snapshotters = append(s.snapshotters, namedSnapshotter{name: name, s: sn})
}

type namedSnapshotter struct {
	name string
	s    Snapshotter
}

// CaptureSnapshot serializes the full dynamic state of the system at the
// current settled cycle boundary.
func (s *System) CaptureSnapshot() (*Snapshot, error) {
	sigs, err := s.K.CaptureSignals()
	if err != nil {
		return nil, err
	}
	sn := &Snapshot{
		Version: SnapshotVersion,
		Cycle:   s.Bus.Clk.Cycles(),
		Signals: sigs,
		Bus:     s.Bus.CaptureState(),
		Monitor: s.Monitor.CaptureState(),
	}
	for _, m := range s.Masters {
		sn.Masters = append(sn.Masters, m.CaptureState())
	}
	if s.Default != nil {
		ds := s.Default.CaptureState()
		sn.Default = &ds
	}
	for _, sl := range s.Slaves {
		sn.Slaves = append(sn.Slaves, sl.CaptureState())
	}
	for _, ns := range s.snapshotters {
		blob, err := ns.s.CaptureSnapshot()
		if err != nil {
			return nil, fmt.Errorf("core: capturing %q: %w", ns.name, err)
		}
		if sn.Extra == nil {
			sn.Extra = map[string]json.RawMessage{}
		}
		if _, dup := sn.Extra[ns.name]; dup {
			return nil, fmt.Errorf("core: duplicate snapshotter %q", ns.name)
		}
		sn.Extra[ns.name] = blob
	}
	return sn, nil
}

// RestoreSnapshot writes a captured snapshot onto this freshly built
// system. The system must be a deterministic twin of the captured one —
// same topology, same loaded workloads, same analyzer/injector
// attachments — and must not have been run yet. After restore the next
// simulated cycle is Cycle+1, on either execution backend.
func (s *System) RestoreSnapshot(sn *Snapshot) error {
	if sn.Version != SnapshotVersion {
		return fmt.Errorf("core: snapshot version %d, this binary restores %d", sn.Version, SnapshotVersion)
	}
	if got, want := len(sn.Masters), len(s.Masters); got != want {
		return fmt.Errorf("core: snapshot has %d masters, system has %d", got, want)
	}
	if (sn.Default != nil) != (s.Default != nil) {
		return fmt.Errorf("core: snapshot and system disagree on the default master")
	}
	if got, want := len(sn.Slaves), len(s.Slaves); got != want {
		return fmt.Errorf("core: snapshot has %d slaves, system has %d", got, want)
	}
	// Settle initialization at time zero first: the init deltas run every
	// process once and must not clobber restored values.
	if err := s.K.Run(0); err != nil {
		return err
	}
	if err := s.K.RestoreSignals(sn.Signals); err != nil {
		return err
	}
	if err := s.K.RestoreTime(sim.Time(sn.Cycle) * s.Bus.Clk.Period()); err != nil {
		return err
	}
	s.Bus.Clk.RestoreCycles(sn.Cycle)
	s.Bus.RestoreState(sn.Bus)
	s.Monitor.RestoreState(sn.Monitor)
	for i, m := range s.Masters {
		if err := m.RestoreState(sn.Masters[i]); err != nil {
			return err
		}
	}
	if s.Default != nil {
		if err := s.Default.RestoreState(*sn.Default); err != nil {
			return err
		}
	}
	for i, sl := range s.Slaves {
		sl.RestoreState(sn.Slaves[i])
	}
	seen := 0
	for _, ns := range s.snapshotters {
		blob, ok := sn.Extra[ns.name]
		if !ok {
			return fmt.Errorf("core: snapshot is missing component %q", ns.name)
		}
		seen++
		if err := ns.s.RestoreSnapshot(blob); err != nil {
			return fmt.Errorf("core: restoring %q: %w", ns.name, err)
		}
	}
	if seen != len(sn.Extra) {
		return fmt.Errorf("core: snapshot carries %d extra components, system registered %d", len(sn.Extra), seen)
	}
	return nil
}

// SetCheckpointHook registers fn to run at settled chunk boundaries of
// RunContextStepped, at least every cycles apart (clamped up to the
// chunk size). The hook sees the number of cycles completed in this run;
// a typical hook captures a snapshot and persists it. An error from the
// hook aborts the run. Setting a hook forces the chunked execution path
// even without a cancellable context.
func (s *System) SetCheckpointHook(every uint64, fn func(done uint64) error) {
	if every < runChunk {
		every = runChunk
	}
	s.ckptEvery = every
	s.ckptFn = fn
}

// analyzerState is the analyzer's serialized dynamic state: the FSM and
// breakdown accumulators as bit patterns, the register file every style
// runs on, the DPM streak and the activity counters.
type analyzerState struct {
	FSM       power.FSMState       `json:"fsm"`
	Breakdown power.BreakdownState `json:"breakdown"`
	analyzerRegs
	DPM      *dpmState       `json:"dpm,omitempty"`
	Activity *power.Activity `json:"activity,omitempty"`
}

// SnapshotUnsupported returns the reason this analyzer cannot join a
// checkpoint snapshot, or "" when it can. A trace recorder holds
// unserialized mid-run state; the engine's execution plan runs scenarios
// using one without checkpointing, and this guard refuses them again.
func (a *Analyzer) SnapshotUnsupported() string {
	return a.cfg.SnapshotUnsupported()
}

// SnapshotUnsupported is the config-level form of the analyzer's
// checkpoint guard. The exec capability table must never arm a
// configuration it refuses; the engine's planner tests check both agree.
func (cfg AnalyzerConfig) SnapshotUnsupported() string {
	if cfg.Trace != nil {
		return "trace recorder attached"
	}
	return ""
}

// CaptureSnapshot implements Snapshotter.
func (a *Analyzer) CaptureSnapshot() (json.RawMessage, error) {
	if reason := a.SnapshotUnsupported(); reason != "" {
		return nil, fmt.Errorf("core: analyzer not snapshottable: %s", reason)
	}
	return json.Marshal(analyzerState{
		FSM:          a.fsm.CaptureState(),
		Breakdown:    a.bd.CaptureState(),
		analyzerRegs: a.regs,
		DPM:          a.dpm,
		Activity:     a.activity,
	})
}

// RestoreSnapshot implements Snapshotter.
func (a *Analyzer) RestoreSnapshot(blob json.RawMessage) error {
	if reason := a.SnapshotUnsupported(); reason != "" {
		return fmt.Errorf("core: analyzer not snapshottable: %s", reason)
	}
	var st analyzerState
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("core: decoding analyzer snapshot: %w", err)
	}
	if len(st.LocalPrev) != len(a.regs.LocalPrev) {
		return fmt.Errorf("core: analyzer snapshot has %d local-history slots, analyzer has %d", len(st.LocalPrev), len(a.regs.LocalPrev))
	}
	if (st.DPM != nil) != (a.dpm != nil) || st.DPM != nil && st.DPM.Estimate.Config != a.dpm.Estimate.Config {
		return fmt.Errorf("core: analyzer snapshot and analyzer disagree on the DPM estimator")
	}
	if (st.Activity != nil) != (a.activity != nil) {
		return fmt.Errorf("core: analyzer snapshot and analyzer disagree on activity recording")
	}
	if err := a.fsm.RestoreState(st.FSM); err != nil {
		return err
	}
	if err := a.bd.RestoreState(st.Breakdown); err != nil {
		return err
	}
	a.regs, a.dpm = st.analyzerRegs, st.DPM
	if a.activity != nil {
		*a.activity = *st.Activity
	}
	return nil
}
