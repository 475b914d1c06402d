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
// in-flight beats and the memory contents (a sorted cell list) are
// converted, and a master regenerates its traffic by pulling its fresh
// source up to the captured position. Restores assume the kernel's signal
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

// FlightState is the serialized form of one in-flight beat. Its op is
// stored as its (sequence, op) position; restore reads the op's lock bit
// back from the regenerated traffic.
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

// MasterState is a master state machine's dynamic state: traffic
// position, idle countdown, in-flight and rewound beats, the current op's
// remaining BUSY insertions and the protocol counters.
type MasterState struct {
	masterRegs

	AddrPhase *FlightState  `json:"addr_phase,omitempty"`
	DataPhase *FlightState  `json:"data_phase,omitempty"`
	Rewind    []FlightState `json:"rewind,omitempty"`

	// BusyLeft is the current op's BusyBefore map less the BUSY cycles
	// already inserted; nil when the op has none.
	BusyLeft map[int]int `json:"busy_left,omitempty"`
}

// masterRegs is the scalar state a master runs on: the traffic position
// (sequence, op and beat), the idle countdown, the NONSEQ-restart and
// split-wait flags and the protocol counters.
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

func captureFlight(f *flight) FlightState {
	return FlightState{
		SeqIdx: f.seqIdx, OpIdx: f.opIdx,
		BeatIdx: f.beatIdx,
		Addr:    f.addr,
		Write:   f.write,
		Size:    f.size,
		Burst:   f.burst,
		Trans:   f.trans,
		Data:    f.data,
	}
}

func (m *Master) restoreFlight(st FlightState) *flight {
	f := m.newFlight()
	*f = flight{seqIdx: st.SeqIdx, opIdx: st.OpIdx, beatIdx: st.BeatIdx, addr: st.Addr,
		write: st.Write, size: st.Size, burst: st.Burst, trans: st.Trans, data: st.Data}
	return f
}

// CaptureState serializes the master's dynamic state.
func (m *Master) CaptureState() MasterState {
	// Pulling the current sequence first steps over op-less sequences, so
	// the captured position is one RestoreState seeks to.
	op := m.currentOp()
	st := MasterState{masterRegs: m.regs}
	if m.addrPhase != nil {
		f := captureFlight(m.addrPhase)
		st.AddrPhase = &f
	}
	if m.dataPhase != nil {
		f := captureFlight(m.dataPhase)
		st.DataPhase = &f
	}
	for _, rf := range m.rewind {
		st.Rewind = append(st.Rewind, captureFlight(rf))
	}
	if op != nil {
		st.BusyLeft = maps.Clone(m.busyLeft)
	}
	return st
}

// RestoreState writes a captured master state back onto a master that
// has not run yet and streams the identical traffic. It pulls the source
// up to the captured sequence, reading each in-flight beat's lock bit
// from its op on the way. A position or flight the traffic does not
// reach is an error.
func (m *Master) RestoreState(st MasterState) error {
	if m.pulled != 0 {
		return fmt.Errorf("ahb: master %d restored after pulling traffic", m.idx)
	}
	if st.SeqIdx < 0 || st.OpIdx < 0 {
		return fmt.Errorf("ahb: master %d position (%d,%d) is negative", m.idx, st.SeqIdx, st.OpIdx)
	}
	m.addrPhase, m.dataPhase, m.rewind = nil, nil, nil
	var flights []*flight
	if st.AddrPhase != nil {
		m.addrPhase = m.restoreFlight(*st.AddrPhase)
		flights = append(flights, m.addrPhase)
	}
	if st.DataPhase != nil {
		m.dataPhase = m.restoreFlight(*st.DataPhase)
		flights = append(flights, m.dataPhase)
	}
	for _, fs := range st.Rewind {
		m.rewind = append(m.rewind, m.restoreFlight(fs))
	}
	flights = append(flights, m.rewind...)
	// Seek: pull sequences 0..SeqIdx; the last one pulled is current.
	for m.src != nil && m.pulled <= st.SeqIdx {
		seq, ok := m.src.Next()
		if !ok {
			break
		}
		for _, f := range flights {
			if f.seqIdx != m.pulled {
				continue
			}
			if f.opIdx < 0 || f.opIdx >= len(seq.Ops) {
				return fmt.Errorf("ahb: flight op position (%d,%d) outside master %d traffic", f.seqIdx, f.opIdx, m.idx)
			}
			f.lock = seq.Ops[f.opIdx].Lock
		}
		m.cur = seq
		m.pulled++
	}
	if m.pulled < st.SeqIdx {
		return fmt.Errorf("ahb: master %d position %d past the end of its %d-sequence traffic", m.idx, st.SeqIdx, m.pulled)
	}
	for _, f := range flights {
		if f.seqIdx >= m.pulled {
			return fmt.Errorf("ahb: flight op position (%d,%d) outside master %d traffic", f.seqIdx, f.opIdx, m.idx)
		}
	}
	m.regs = st.masterRegs
	m.busyLeft = nil
	if m.pulled > st.SeqIdx && st.OpIdx >= len(m.cur.Ops) {
		return fmt.Errorf("ahb: master %d op position (%d,%d) outside its traffic", m.idx, st.SeqIdx, st.OpIdx)
	}
	if st.BusyLeft != nil {
		if m.currentOp() == nil {
			return fmt.Errorf("ahb: BusyLeft captured with no current op on master %d", m.idx)
		}
		m.busyLeft = maps.Clone(st.BusyLeft)
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
