package ahb

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// Snapshot state for the bus components. Every struct here is plain
// serializable data (JSON-friendly, exported fields only), and the
// components run on it: the bus on BusState, the monitor on MonitorState,
// a master on the scalar part of MasterState and the slaves on
// LatchedState. Capture is therefore a copy and restore an assignment
// onto a freshly constructed, structurally identical component; only the
// in-flight beats (stored as script positions) and the memory contents
// (a sorted cell list) are converted. Restores assume the kernel's signal
// values have already been restored (silently), so they only move
// component-resident state — cursors, latches, counters, masks — and
// never drive signals.

// BusState is the interconnect's dynamic state outside the signals: the
// arbiter's split mask, the settled-cycle counter, the handover latch
// and the default slave's two-cycle-ERROR latch.
type BusState struct {
	SplitMask   uint16 `json:"split_mask"`
	Cycles      uint64 `json:"cycles"`
	LastMaster  uint8  `json:"last_master"`
	DefErrCycle bool   `json:"def_err_cycle,omitempty"`
}

// CaptureState serializes the bus-level dynamic state.
func (b *Bus) CaptureState() BusState { return b.st }

// RestoreState writes a captured bus state back.
func (b *Bus) RestoreState(st BusState) { b.st = st }

// FlightState is the serialized form of one in-flight beat. The script
// op it references is stored as its (sequence, op) position — restore
// re-resolves the pointer into the deterministically rebuilt script.
type FlightState struct {
	SeqIdx  int    `json:"seq"`
	OpIdx   int    `json:"op"`
	BeatIdx int    `json:"beat"`
	Addr    uint32 `json:"addr"`
	Write   bool   `json:"write,omitempty"`
	Size    uint8  `json:"size"`
	Burst   uint8  `json:"burst"`
	Trans   uint8  `json:"trans"`
	Data    uint32 `json:"data,omitempty"`
}

// MasterState is a master state machine's dynamic state: script cursor,
// idle countdown, in-flight and rewound beats, the current op's
// remaining BUSY insertions (decremented in place as they are consumed)
// and the protocol counters.
type MasterState struct {
	masterRegs

	AddrPhase *FlightState  `json:"addr_phase,omitempty"`
	DataPhase *FlightState  `json:"data_phase,omitempty"`
	Rewind    []FlightState `json:"rewind,omitempty"`

	// BusyLeft is the current op's partially consumed BusyBefore map;
	// nil when the op has none.
	BusyLeft map[int]int `json:"busy_left,omitempty"`
}

// masterRegs is the scalar state a master runs on: the script cursor,
// the idle countdown, the NONSEQ-restart and split-wait flags and the
// protocol counters.
type masterRegs struct {
	SeqIdx  int `json:"seq_idx"`
	OpIdx   int `json:"op_idx"`
	Beat    int `json:"beat"`
	IdleCnt int `json:"idle_cnt"`
	// MustNonseq forces the next driven beat to NONSEQ (burst rebuilt
	// after losing the bus or after a canceled transfer).
	MustNonseq bool        `json:"must_nonseq,omitempty"`
	SplitWait  bool        `json:"split_wait,omitempty"`
	Stats      MasterStats `json:"stats"`
}

// opPosition locates op in the master's script by pointer identity.
func (m *Master) opPosition(op *Op) (int, int, error) {
	if op == nil {
		return -1, -1, nil
	}
	for si := range m.script {
		ops := m.script[si].Ops
		for oi := range ops {
			if &ops[oi] == op {
				return si, oi, nil
			}
		}
	}
	return 0, 0, fmt.Errorf("ahb: in-flight op not found in master %d script", m.idx)
}

func (m *Master) captureFlight(f *flight) (FlightState, error) {
	si, oi, err := m.opPosition(f.op)
	if err != nil {
		return FlightState{}, err
	}
	return FlightState{
		SeqIdx: si, OpIdx: oi,
		BeatIdx: f.beatIdx,
		Addr:    f.addr,
		Write:   f.write,
		Size:    f.size,
		Burst:   f.burst,
		Trans:   f.trans,
		Data:    f.data,
	}, nil
}

func (m *Master) restoreFlight(st FlightState) (*flight, error) {
	f := m.newFlight()
	if st.SeqIdx >= 0 {
		if st.SeqIdx >= len(m.script) || st.OpIdx >= len(m.script[st.SeqIdx].Ops) {
			return nil, fmt.Errorf("ahb: flight op position (%d,%d) outside master %d script", st.SeqIdx, st.OpIdx, m.idx)
		}
		f.op = &m.script[st.SeqIdx].Ops[st.OpIdx]
	}
	f.beatIdx = st.BeatIdx
	f.addr = st.Addr
	f.write = st.Write
	f.size = st.Size
	f.burst = st.Burst
	f.trans = st.Trans
	f.data = st.Data
	return f, nil
}

// CaptureState serializes the master's dynamic state.
func (m *Master) CaptureState() (MasterState, error) {
	st := MasterState{masterRegs: m.regs}
	if m.addrPhase != nil {
		f, e := m.captureFlight(m.addrPhase)
		if e != nil {
			return st, e
		}
		st.AddrPhase = &f
	}
	if m.dataPhase != nil {
		f, e := m.captureFlight(m.dataPhase)
		if e != nil {
			return st, e
		}
		st.DataPhase = &f
	}
	for _, rf := range m.rewind {
		f, e := m.captureFlight(rf)
		if e != nil {
			return st, e
		}
		st.Rewind = append(st.Rewind, f)
	}
	if op := m.currentOp(); op != nil {
		st.BusyLeft = maps.Clone(op.BusyBefore)
	}
	return st, nil
}

// RestoreState writes a captured master state back onto a master holding
// the identical script.
func (m *Master) RestoreState(st MasterState) error {
	m.regs = st.masterRegs
	m.addrPhase, m.dataPhase, m.rewind = nil, nil, nil
	if st.AddrPhase != nil {
		f, err := m.restoreFlight(*st.AddrPhase)
		if err != nil {
			return err
		}
		m.addrPhase = f
	}
	if st.DataPhase != nil {
		f, err := m.restoreFlight(*st.DataPhase)
		if err != nil {
			return err
		}
		m.dataPhase = f
	}
	for _, fs := range st.Rewind {
		f, err := m.restoreFlight(fs)
		if err != nil {
			return err
		}
		m.rewind = append(m.rewind, f)
	}
	if st.BusyLeft != nil {
		op := m.currentOp()
		if op == nil {
			return fmt.Errorf("ahb: BusyLeft captured with no current op on master %d", m.idx)
		}
		op.BusyBefore = maps.Clone(st.BusyLeft)
	}
	return nil
}

// MemCell is one occupied word of a memory slave's backing store.
type MemCell struct {
	Addr uint32 `json:"a"` // word address (byte address >> 2)
	Val  uint32 `json:"v"`
}

// LatchedState is an address phase a slave latched for its data phase.
type LatchedState struct {
	Addr  uint32 `json:"addr"`
	Write bool   `json:"write,omitempty"`
	Size  uint8  `json:"size,omitempty"`
}

// MemorySlaveState is a memory slave's dynamic state: the backing store
// (sorted by word address for a canonical serialization), the latched
// address phase with its wait countdown, and the counters.
type MemorySlaveState struct {
	Mem      []MemCell     `json:"mem,omitempty"`
	Pending  *LatchedState `json:"pending,omitempty"`
	WaitLeft int           `json:"wait_left,omitempty"`
	Stats    SlaveStats    `json:"stats"`
}

// CaptureState serializes the slave's dynamic state.
func (s *MemorySlave) CaptureState() MemorySlaveState {
	st := MemorySlaveState{WaitLeft: s.waitLeft, Stats: s.stats}
	if len(s.mem) > 0 {
		st.Mem = make([]MemCell, 0, len(s.mem))
		for a, v := range s.mem {
			st.Mem = append(st.Mem, MemCell{Addr: a, Val: v})
		}
		sort.Slice(st.Mem, func(i, j int) bool { return st.Mem[i].Addr < st.Mem[j].Addr })
	}
	if s.pending != nil {
		p := *s.pending
		st.Pending = &p
	}
	return st
}

// RestoreState writes a captured slave state back.
func (s *MemorySlave) RestoreState(st MemorySlaveState) {
	s.mem = make(map[uint32]uint32, len(st.Mem))
	for _, c := range st.Mem {
		s.mem[c.Addr] = c.Val
	}
	s.pending = nil
	if st.Pending != nil {
		s.latch = *st.Pending
		s.pending = &s.latch
	}
	s.waitLeft = st.WaitLeft
	s.stats = st.Stats
}

// MonitorCountsState is the monitor's per-event counters, kept as plain
// fields: the monitor bumps one or two of them every settled cycle, and a
// map increment on that path (hash + lookup per event) is measurable
// across a whole sweep. Monitor.Counts materializes the map form.
type MonitorCountsState struct {
	Idle     uint64 `json:"idle,omitempty"`
	Busy     uint64 `json:"busy,omitempty"`
	Nonseq   uint64 `json:"nonseq,omitempty"`
	Seq      uint64 `json:"seq,omitempty"`
	Handover uint64 `json:"handover,omitempty"`
	Wait     uint64 `json:"wait,omitempty"`
}

// MonitorState is the protocol monitor's dynamic state: recorded
// violations, the previous-cycle record its rules compare against, the
// counters and the burst-boundary latch.
type MonitorState struct {
	Errs      []ProtocolError    `json:"errs,omitempty"`
	Prev      CycleInfo          `json:"prev"`
	HavePrev  bool               `json:"have_prev,omitempty"`
	Counts    MonitorCountsState `json:"counts"`
	BurstBase uint32             `json:"burst_base,omitempty"`
}

// CaptureState serializes the monitor's dynamic state.
func (m *Monitor) CaptureState() MonitorState {
	st := m.st
	st.Errs = slices.Clone(m.st.Errs)
	return st
}

// RestoreState writes a captured monitor state back.
func (m *Monitor) RestoreState(st MonitorState) {
	m.st = st
	m.st.Errs = slices.Clone(st.Errs)
}
