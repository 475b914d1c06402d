package ahb

import "fmt"

// OpKind is the kind of a master operation.
type OpKind uint8

// Operation kinds.
const (
	OpWrite OpKind = iota
	OpRead
	OpIdle
)

// Op is one bus operation in a master script: a write burst, a read burst,
// or a number of idle cycles.
type Op struct {
	Kind OpKind
	Addr uint32
	// Data holds the write data beats; its length sets the burst length
	// for writes. For reads, Beats sets the length (default 1).
	Data  []uint32
	Beats int
	Size  uint8
	Burst uint8 // HBURST encoding; inferred from the beat count when 0 and beats>1
	Lock  bool
	// BusyBefore inserts a BUSY cycle before each beat index listed.
	BusyBefore map[int]int
	// IdleCycles applies to OpIdle.
	IdleCycles int
}

// beats returns the burst length of the op.
func (o *Op) beats() int {
	if o.Kind == OpWrite {
		if len(o.Data) == 0 {
			return 1
		}
		return len(o.Data)
	}
	if o.Beats <= 0 {
		return 1
	}
	return o.Beats
}

// burstCode returns the HBURST encoding, inferring INCRn from the beat
// count when unspecified.
func (o *Op) burstCode() uint8 {
	if o.Burst != 0 {
		return o.Burst
	}
	switch o.beats() {
	case 1:
		return BurstSingle
	case 4:
		return BurstIncr4
	case 8:
		return BurstIncr8
	case 16:
		return BurstIncr16
	default:
		return BurstIncr
	}
}

// Sequence is a run of operations the master performs back-to-back while
// holding its bus request (the paper's "non-interruptible" WRITE-READ
// sequences), followed by a number of idle cycles with the request
// released.
type Sequence struct {
	Ops       []Op
	IdleAfter int
}

// Result records the completion of one beat, for test verification.
type Result struct {
	Write bool
	Addr  uint32
	Data  uint32
	Resp  uint8
	Cycle uint64
}

// MasterStats counts master-side protocol events.
type MasterStats struct {
	Beats     uint64
	Errors    uint64
	Retries   uint64
	Splits    uint64
	WaitCycle uint64
	IdleCycle uint64
	BusyCycle uint64
}

// Master is a script-driven AHB bus master. With an empty script it acts
// as the paper's "simple default master": never requesting, driving IDLE
// whenever granted.
type Master struct {
	bus   *Bus
	idx   int
	ports *masterPorts

	script []Sequence
	// regs is the script cursor, flags and counters: the scalar part of
	// the master's snapshot (see MasterState).
	regs masterRegs

	// addrPhase / dataPhase describe in-flight beats.
	addrPhase *flight
	dataPhase *flight
	rewind    []*flight // beats to re-issue after RETRY/SPLIT/preemption

	results []Result
	keepRes bool
	onDrive func(*BeatDrive)

	// spare recycles completed flights: one flight is consumed per data
	// beat, and allocating each one dominates the master's per-cycle cost
	// on long runs. Flights are returned after completeBeat, the only
	// point where a flight dies with no remaining reference.
	spare []*flight
}

// newFlight returns a zeroed flight, reusing a recycled one when
// available.
func (m *Master) newFlight() *flight {
	if n := len(m.spare); n > 0 {
		f := m.spare[n-1]
		m.spare = m.spare[:n-1]
		*f = flight{}
		return f
	}
	return new(flight)
}

// recycle returns a dead flight to the spare pool. The caller must hold
// the only reference.
func (m *Master) recycle(f *flight) {
	f.op = nil // release the script op while pooled
	m.spare = append(m.spare, f)
}

// BeatDrive is the mutable view of a beat the instant before its address
// phase goes on the bus. An OnDrive hook may rewrite Addr and (for writes)
// Data; the mutated values are what the master drives and what it re-issues
// on RETRY/SPLIT — the fault injector's bit-flip channel.
type BeatDrive struct {
	Trans uint8
	Beat  int // beat index within the op
	Write bool
	Addr  uint32
	Data  uint32
}

// flight is one beat in the bus pipeline.
type flight struct {
	op      *Op
	beatIdx int
	addr    uint32
	write   bool
	size    uint8
	burst   uint8
	trans   uint8
	data    uint32
}

// NewMaster attaches a master state machine to bus port idx.
func NewMaster(b *Bus, idx int) (*Master, error) {
	if idx < 0 || idx >= b.Cfg.NumMasters {
		return nil, fmt.Errorf("ahb: master index %d out of range", idx)
	}
	m := &Master{bus: b, idx: idx, ports: &b.M[idx]}
	b.K.MethodNoInit(fmt.Sprintf("%s.master%d", b.Cfg.Name, idx), m.tick, b.Clk.Posedge())
	return m, nil
}

// Index returns the master's port index.
func (m *Master) Index() int { return m.idx }

// Enqueue appends sequences to the master's script.
func (m *Master) Enqueue(seqs ...Sequence) {
	m.script = append(m.script, seqs...)
}

// KeepResults makes the master record every completed beat (for tests).
func (m *Master) KeepResults(keep bool) { m.keepRes = keep }

// OnDrive registers a callback invoked just before every NONSEQ/SEQ beat is
// driven onto the address bus, with a mutable BeatDrive. Mutations stick:
// the beat keeps the altered address/data through wait states and re-issue.
func (m *Master) OnDrive(fn func(*BeatDrive)) { m.onDrive = fn }

// Results returns the recorded beats (empty unless KeepResults(true)).
func (m *Master) Results() []Result { return m.results }

// Stats returns the master's protocol counters.
func (m *Master) Stats() MasterStats { return m.regs.Stats }

// Done reports whether the script is fully executed and no beat is in
// flight.
func (m *Master) Done() bool {
	return m.regs.SeqIdx >= len(m.script) && m.addrPhase == nil && m.dataPhase == nil && len(m.rewind) == 0
}

// tick advances the master by one clock edge.
func (m *Master) tick() {
	hready := m.bus.HReady.Read()
	resp := m.bus.HResp.Read()
	granted := m.bus.Grant[m.idx].Read()

	// 1. Data-phase completion / error handling.
	if m.dataPhase != nil {
		if !hready {
			switch resp {
			case RespRetry, RespSplit:
				// First cycle of a two-cycle RETRY/SPLIT: cancel the
				// address phase, drive IDLE, and queue both the failed
				// beat and the canceled address-phase beat for re-issue.
				if resp == RespRetry {
					m.regs.Stats.Retries++
				} else {
					m.regs.Stats.Splits++
					m.regs.SplitWait = true
				}
				m.rewind = append(m.rewind, m.dataPhase)
				if m.addrPhase != nil && (m.addrPhase.trans == TransNonseq || m.addrPhase.trans == TransSeq) {
					m.rewind = append(m.rewind, m.addrPhase)
				}
				m.dataPhase = nil
				m.addrPhase = nil
				m.regs.MustNonseq = true
				m.driveIdle()
			case RespError:
				// First cycle of a two-cycle ERROR: transfer will be
				// abandoned at the second cycle.
				m.regs.Stats.WaitCycle++
			default:
				m.regs.Stats.WaitCycle++
			}
		} else {
			f := m.dataPhase
			m.dataPhase = nil
			switch resp {
			case RespOkay:
				m.completeBeat(f, RespOkay)
				m.recycle(f)
			case RespError:
				m.regs.Stats.Errors++
				m.completeBeat(f, RespError)
				m.recycle(f)
			default:
				// Second cycle of RETRY/SPLIT reached without the first
				// having been observed (cannot normally happen).
				m.rewind = append(m.rewind, f)
			}
		}
	}

	if !hready {
		// Address phase is frozen during wait states.
		return
	}

	// 2. The address phase just got sampled: promote it to data phase.
	if m.addrPhase != nil {
		if m.addrPhase.trans == TransNonseq || m.addrPhase.trans == TransSeq {
			m.dataPhase = m.addrPhase
			if m.dataPhase.write {
				m.ports.Wdata.Write(m.dataPhase.data)
			}
		}
		m.addrPhase = nil
	}

	// 3. Drive the next address phase.
	m.driveNext(granted)
}

// completeBeat finalizes one beat.
func (m *Master) completeBeat(f *flight, resp uint8) {
	m.regs.Stats.Beats++
	if !m.keepRes {
		return
	}
	r := Result{
		Write: f.write,
		Addr:  f.addr,
		Resp:  resp,
		Cycle: m.bus.Clk.Cycles(),
	}
	if f.write {
		r.Data = f.data
	} else {
		r.Data = m.bus.HRdata.Read()
	}
	m.results = append(m.results, r)
}

// driveIdle parks the master's address outputs.
func (m *Master) driveIdle() {
	m.ports.Trans.Write(TransIdle)
	m.ports.Lock.Write(false)
}

// driveNext picks and drives the next beat, BUSY cycle or IDLE.
func (m *Master) driveNext(granted bool) {
	// Request logic: request while work remains in the current sequence
	// (including a beat to re-issue) and not waiting for a split resume.
	wantBus := m.hasWork()
	if m.regs.SplitWait {
		if m.bus.st.SplitMask&(1<<uint(m.idx)) != 0 {
			wantBus = false
		} else {
			m.regs.SplitWait = false
		}
	}
	m.ports.BusReq.Write(wantBus)

	if !granted || !wantBus {
		m.driveIdle()
		if wantBus {
			// Lost or awaiting the bus mid-sequence: any burst in
			// progress must be rebuilt with NONSEQ when regained.
			m.regs.MustNonseq = true
		} else {
			m.advanceIdle()
		}
		return
	}

	// Re-issue a RETRY/SPLIT/preempted beat: NONSEQ with INCR
	// (early-terminated burst semantics).
	if len(m.rewind) > 0 {
		f := m.rewind[0]
		m.rewind = m.rewind[1:]
		// Re-issue the same flight in place; nothing else references it
		// once it leaves the rewind queue.
		f.burst, f.trans = BurstIncr, TransNonseq
		m.driveFlight(f)
		return
	}

	op := m.currentOp()
	if op == nil || op.Kind == OpIdle {
		m.driveIdle()
		m.advanceIdle()
		return
	}

	// BUSY insertion before this beat.
	if op.BusyBefore != nil && m.regs.Beat > 0 {
		if left := op.BusyBefore[m.regs.Beat]; left > 0 {
			op.BusyBefore[m.regs.Beat] = left - 1
			m.regs.Stats.BusyCycle++
			m.ports.Trans.Write(TransBusy)
			return
		}
	}

	f := m.flightFor(op)
	m.driveFlight(f)
	m.regs.Beat++
	if m.regs.Beat >= op.beats() {
		m.nextOp()
	}
}

// nextOp moves the script cursor past the current op, entering the
// sequence's idle gap after its last op.
func (m *Master) nextOp() {
	m.regs.Beat = 0
	m.regs.OpIdx++
	if m.regs.OpIdx >= len(m.script[m.regs.SeqIdx].Ops) {
		m.regs.OpIdx = 0
		m.regs.IdleCnt = m.script[m.regs.SeqIdx].IdleAfter
		m.regs.SeqIdx++
	}
}

// hasWork reports whether the master has a beat to issue now (rewind or a
// non-idle op at the current script position).
func (m *Master) hasWork() bool {
	if len(m.rewind) > 0 || m.addrPhase != nil {
		return true
	}
	if m.regs.IdleCnt > 0 {
		return false
	}
	op := m.currentOp()
	return op != nil && op.Kind != OpIdle
}

// currentOp returns the op at the script cursor, or nil when exhausted.
func (m *Master) currentOp() *Op {
	if m.regs.SeqIdx >= len(m.script) {
		return nil
	}
	seq := &m.script[m.regs.SeqIdx]
	if m.regs.OpIdx >= len(seq.Ops) {
		return nil
	}
	return &seq.Ops[m.regs.OpIdx]
}

// advanceIdle consumes one idle cycle if an idle gap or OpIdle is active.
func (m *Master) advanceIdle() {
	m.regs.Stats.IdleCycle++
	if m.regs.IdleCnt > 0 {
		m.regs.IdleCnt--
		return
	}
	op := m.currentOp()
	if op != nil && op.Kind == OpIdle {
		if m.regs.Beat == 0 {
			m.regs.Beat = op.IdleCycles
		}
		m.regs.Beat--
		if m.regs.Beat <= 0 {
			m.nextOp()
		}
	}
}

// flightFor builds the flight for the current beat of op.
func (m *Master) flightFor(op *Op) *flight {
	f := m.newFlight()
	f.op, f.beatIdx, f.write, f.size = op, m.regs.Beat, op.Kind == OpWrite, op.Size
	if f.size == 0 && m.bus.Cfg.DataWidth == 32 {
		f.size = Size32
	}
	f.burst = op.burstCode()
	if m.regs.Beat == 0 {
		f.addr = op.Addr
		f.trans = TransNonseq
	} else if m.regs.MustNonseq {
		// Burst rebuilt after losing the bus: restart as NONSEQ/INCR.
		f.trans = TransNonseq
		f.burst = BurstIncr
		f.addr = m.nextAddr(op)
	} else {
		f.trans = TransSeq
		f.addr = m.nextAddr(op)
	}
	m.regs.MustNonseq = false
	if f.write && m.regs.Beat < len(op.Data) {
		f.data = op.Data[m.regs.Beat] & m.bus.DataMask()
	}
	return f
}

// nextAddr computes the address of beat m.regs.Beat of op.
func (m *Master) nextAddr(op *Op) uint32 {
	addr := op.Addr
	for i := 0; i < m.regs.Beat; i++ {
		addr = NextBurstAddr(addr, op.burstCode(), m.sizeOf(op))
	}
	return addr
}

func (m *Master) sizeOf(op *Op) uint8 {
	if op.Size == 0 && m.bus.Cfg.DataWidth == 32 {
		return Size32
	}
	return op.Size
}

// driveFlight puts a beat on the address bus.
func (m *Master) driveFlight(f *flight) {
	if m.onDrive != nil && (f.trans == TransNonseq || f.trans == TransSeq) {
		bd := BeatDrive{Trans: f.trans, Beat: f.beatIdx, Write: f.write, Addr: f.addr, Data: f.data}
		m.onDrive(&bd)
		f.addr = bd.Addr
		if f.write {
			f.data = bd.Data & m.bus.DataMask()
		}
	}
	m.addrPhase = f
	m.ports.Trans.Write(f.trans)
	m.ports.Addr.Write(f.addr)
	m.ports.Write.Write(f.write)
	m.ports.Size.Write(f.size)
	m.ports.Burst.Write(f.burst)
	m.ports.Lock.Write(f.op != nil && f.op.Lock)
}
