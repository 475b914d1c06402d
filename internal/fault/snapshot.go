package fault

import (
	"encoding/json"
	"fmt"
)

// Snapshot state for a compiled Injector. PRNG streams are captured as
// their draw counts: restore re-seeds each interceptor's source from the
// plan (derivation is deterministic) and replays the recorded number of
// draws, which reproduces the stream position exactly. Rule budgets are
// captured as fired counts. Restore is index-aligned — the plan compiled
// onto the rebuilt system yields the same interceptors in the same
// order, so positional identity is sound and checked by shape.

// CaptureSnapshot implements the core.Snapshotter seam (structurally —
// this package does not import core): the injector's state as JSON.
func (in *Injector) CaptureSnapshot() (json.RawMessage, error) {
	return json.Marshal(in.CaptureState())
}

// RestoreSnapshot implements the core.Snapshotter seam.
func (in *Injector) RestoreSnapshot(blob json.RawMessage) error {
	var st InjectorState
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("fault: decoding injector snapshot: %w", err)
	}
	return in.RestoreState(st)
}

// SlaveInjectorState is the runtime of one slave-side interceptor.
type SlaveInjectorState struct {
	Idx int `json:"idx"`
	slaveRuntime
	Draws uint64 `json:"draws"`
}

// MasterInjectorState is the runtime of one master-side interceptor.
type MasterInjectorState struct {
	Idx   int    `json:"idx"`
	Draws uint64 `json:"draws"`
}

// InjectorState is the full dynamic state of a compiled Injector.
type InjectorState struct {
	Stats     Stats                 `json:"stats"`
	RuleFired []int                 `json:"rule_fired,omitempty"`
	Slaves    []SlaveInjectorState  `json:"slaves,omitempty"`
	Masters   []MasterInjectorState `json:"masters,omitempty"`
}

// CaptureState serializes the injector's dynamic state.
func (in *Injector) CaptureState() InjectorState {
	st := InjectorState{Stats: in.stats}
	for _, rs := range in.states {
		st.RuleFired = append(st.RuleFired, rs.fired)
	}
	for _, si := range in.slaves {
		st.Slaves = append(st.Slaves, SlaveInjectorState{Idx: si.idx, slaveRuntime: si.rt, Draws: si.rng.draws})
	}
	for _, mi := range in.masters {
		st.Masters = append(st.Masters, MasterInjectorState{Idx: mi.idx, Draws: mi.rng.draws})
	}
	return st
}

// RestoreState writes a captured injector state back onto an injector
// compiled from the same plan on an identically shaped system.
func (in *Injector) RestoreState(st InjectorState) error {
	if len(st.RuleFired) != len(in.states) {
		return fmt.Errorf("fault: snapshot has %d rule states, injector has %d", len(st.RuleFired), len(in.states))
	}
	if len(st.Slaves) != len(in.slaves) || len(st.Masters) != len(in.masters) {
		return fmt.Errorf("fault: snapshot interceptor shape (%d slaves, %d masters) does not match injector (%d, %d)",
			len(st.Slaves), len(st.Masters), len(in.slaves), len(in.masters))
	}
	in.stats = st.Stats
	for i, fired := range st.RuleFired {
		in.states[i].fired = fired
	}
	for i, ss := range st.Slaves {
		si := in.slaves[i]
		if si.idx != ss.Idx {
			return fmt.Errorf("fault: slave interceptor %d targets slave %d, snapshot has %d", i, si.idx, ss.Idx)
		}
		si.rt = ss.slaveRuntime
		si.rng = newCountingRNG(subSeed(in.plan.Seed, tagSlave, uint64(si.idx)))
		for si.rng.draws < ss.Draws {
			si.rng.Float64()
		}
	}
	for i, ms := range st.Masters {
		mi := in.masters[i]
		if mi.idx != ms.Idx {
			return fmt.Errorf("fault: master interceptor %d targets master %d, snapshot has %d", i, mi.idx, ms.Idx)
		}
		mi.rng = newCountingRNG(subSeed(in.plan.Seed, tagMaster, uint64(mi.idx)))
		for mi.rng.draws < ms.Draws {
			mi.rng.Float64()
		}
	}
	return nil
}
