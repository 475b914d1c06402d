package lane

import (
	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
	"ahbpower/internal/sim"
	"ahbpower/internal/topo"
	"ahbpower/internal/workload"
)

// The lane interpreter replays the register/combinational semantics of the
// kernel-backed ahb model on plain struct fields. The event kernel's
// delta-deferred Signal writes mean every posedge process reads pre-edge
// values; with immediate field writes the same contract needs exactly two
// provisions, both taken in laneState.edge:
//
//   - masters read their grant line as it was before the arbiter
//     re-arbitrated this edge, so grants are snapshotted first;
//   - the arbiter's DataMaster register captures the PREVIOUS HMaster (in
//     the kernel it writes HMaster and then reads the not-yet-committed
//     old value), so the old value is saved before the write.
//
// Everything else is naturally pre-edge: the arbiter runs before the
// masters touch their ports, the combinational values (HREADY, HTRANS,
// HADDR, ...) are only rewritten by the post-edge settle, and no edge
// process reads another's registered outputs.

// laneMasterPorts mirrors ahb's masterPorts as plain fields (HPROT is
// constant zero on the modeled bus and not observed; it is omitted).
type laneMasterPorts struct {
	busReq bool
	lock   bool
	trans  uint8
	addr   uint32
	write  bool
	size   uint8
	burst  uint8
	wdata  uint32
}

// laneSlavePorts mirrors ahb's slavePorts (the split-resume line is never
// driven by a memory slave and is omitted).
type laneSlavePorts struct {
	readyOut bool
	resp     uint8
	rdata    uint32
}

// laneState is one lane's complete bus state: ports, muxed/registered
// signals, the master and slave state machines, the detached protocol
// monitor and the per-lane analyzer.
type laneState struct {
	idx  int
	spec Spec

	nMasters  int
	nSlaves   int
	defaultM  int
	policy    ahb.ArbPolicy
	dataWidth int
	dataMask  uint32

	mp    []laneMasterPorts
	sp    []laneSlavePorts
	grant []bool

	// reqMask mirrors the mp[*].busReq lines as a bitmask, maintained at
	// the single write site (driveNext) so endOfCycle does not rescan the
	// ports every cycle.
	reqMask uint16

	grantIdx uint8

	// Muxed address/control and decode (combinational).
	hTrans uint8
	hAddr  uint32
	hWrite bool
	hSize  uint8
	hBurst uint8
	hWdata uint32
	selIdx int

	// Registered bookkeeping.
	hMaster    uint8
	hMastlock  bool
	dataMaster uint8
	dataSlave  int

	// S2M mux output (combinational).
	hRdata uint32
	hResp  uint8
	hReady bool

	// Default-slave registers.
	defReady    bool
	defResp     uint8
	defErrCycle bool

	masters []laneMaster // active (scripted) masters in port order
	slaves  []laneSlave  // one per slave port

	grantSnap []bool

	monitor    *ahb.Monitor
	an         *laneAnalyzer
	cycles     uint64
	lastMaster uint8
}

// newLaneState builds one lane from its spec and the shared canonical
// topology, mirroring core.NewSystemTopo plus the engine's workload
// resolution (explicit configs, then topology hints, then the paper
// workload sized to Cycles).
func newLaneState(idx int, spec Spec, ct topo.Topology) (*laneState, error) {
	policy, err := ct.ArbPolicy()
	if err != nil {
		return nil, err
	}
	l := &laneState{
		idx:       idx,
		spec:      spec,
		nMasters:  len(ct.Masters),
		nSlaves:   len(ct.Slaves),
		defaultM:  ct.DefaultMasterIndex(),
		policy:    policy,
		dataWidth: ct.DataWidth,
	}
	if ct.DataWidth >= 32 {
		l.dataMask = ^uint32(0)
	} else {
		l.dataMask = (uint32(1) << uint(ct.DataWidth)) - 1
	}

	// Port and register reset values, exactly as ahb.New initializes them.
	l.mp = make([]laneMasterPorts, l.nMasters)
	for m := range l.mp {
		l.mp[m] = laneMasterPorts{trans: ahb.TransIdle, size: ahb.Size32, burst: ahb.BurstSingle}
	}
	l.sp = make([]laneSlavePorts, l.nSlaves)
	for s := range l.sp {
		l.sp[s] = laneSlavePorts{readyOut: true, resp: ahb.RespOkay}
	}
	l.grant = make([]bool, l.nMasters)
	l.grant[l.defaultM] = true
	l.grantSnap = make([]bool, l.nMasters)
	l.grantIdx = uint8(l.defaultM)
	l.hMaster = uint8(l.defaultM)
	l.dataMaster = uint8(l.defaultM)
	l.lastMaster = uint8(l.defaultM)
	l.hTrans = ahb.TransIdle
	l.hSize = ahb.Size32
	l.hBurst = ahb.BurstSingle
	l.selIdx = -1
	l.dataSlave = -1
	l.hResp = ahb.RespOkay
	l.hReady = true
	l.defReady = true
	l.defResp = ahb.RespOkay

	for port, m := range ct.Masters {
		if m.Default {
			// The default master never requests and drives IDLE whenever
			// granted: a complete no-op on bus state, so it has no state
			// machine here.
			continue
		}
		l.masters = append(l.masters, laneMaster{l: l, port: port})
	}
	for port, s := range ct.Slaves {
		l.slaves = append(l.slaves, newLaneSlave(l, port, s))
	}
	if err := l.loadWorkloads(ct); err != nil {
		return nil, err
	}
	l.monitor = ahb.NewDetachedMonitor()
	if !spec.SkipAnalyzer {
		l.an, err = newLaneAnalyzer(spec.Analyzer, l.nMasters, l.nSlaves, ct.DataWidth)
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

// loadWorkloads resolves the lane's traffic with core.ResolveWorkloads,
// the rule every execution path shares, and lowers each master's script.
func (l *laneState) loadWorkloads(ct topo.Topology) error {
	cfgs, err := core.ResolveWorkloads(&ct, l.spec.Workloads, l.spec.Cycles)
	if err != nil {
		return err
	}
	for m := range l.masters {
		seqs, err := workload.Generate(cfgs[m])
		if err != nil {
			return err
		}
		l.masters[m].lowerScript(seqs)
		l.masters[m].reloadCur()
	}
	return nil
}

// edge advances the lane by one rising clock edge: arbiter, default
// slave, masters, then slaves, with the pre-edge reads described at the
// top of the file.
func (l *laneState) edge() {
	copy(l.grantSnap, l.grant)
	l.arbiterEdge()
	l.defslaveEdge()
	for i := range l.masters {
		m := &l.masters[i]
		m.tick(l.grantSnap[m.port])
	}
	for i := range l.slaves {
		l.slaves[i].tick()
	}
}

// arbiterEdge is ahb's registered arbitration process.
func (l *laneState) arbiterEdge() {
	if !l.hReady {
		return
	}
	cur := int(l.grantIdx)
	old := l.hMaster
	l.hMaster = uint8(cur)
	l.hMastlock = l.mp[cur].lock
	// DataMaster captures the pre-edge HMaster (delta-deferred read in
	// the kernel).
	l.dataMaster = old
	if l.hTrans == ahb.TransNonseq || l.hTrans == ahb.TransSeq {
		l.dataSlave = l.selIdx
	} else {
		l.dataSlave = -1
	}
	next := l.arbitrate(cur)
	if next != cur {
		for m := range l.grant {
			l.grant[m] = m == next
		}
		l.grantIdx = uint8(next)
	}
}

// arbitrate mirrors ahb's policy selection. The split mask is always zero
// in a lane pack (memory slaves never SPLIT), so requests are unmasked.
func (l *laneState) arbitrate(cur int) int {
	if l.mp[cur].lock && l.mp[cur].busReq {
		return cur
	}
	switch l.policy {
	case ahb.PolicySticky:
		if l.mp[cur].busReq {
			return cur
		}
		for m := 0; m < l.nMasters; m++ {
			if l.mp[m].busReq {
				return m
			}
		}
	case ahb.PolicyFixed:
		for m := 0; m < l.nMasters; m++ {
			if l.mp[m].busReq {
				return m
			}
		}
	case ahb.PolicyRoundRobin:
		for i := 1; i <= l.nMasters; i++ {
			m := (cur + i) % l.nMasters
			if l.mp[m].busReq {
				return m
			}
		}
	}
	return l.defaultM
}

// defslaveEdge is ahb's internal default slave: a two-cycle ERROR to any
// active transfer decoding to unmapped space.
func (l *laneState) defslaveEdge() {
	if !l.hReady {
		if l.defErrCycle {
			l.defReady = true
			l.defErrCycle = false
		}
		return
	}
	t := l.hTrans
	if l.selIdx == -2 && (t == ahb.TransNonseq || t == ahb.TransSeq) {
		l.defReady = false
		l.defResp = ahb.RespError
		l.defErrCycle = true
	} else {
		l.defReady = true
		l.defResp = ahb.RespOkay
	}
}

// comb settles the lane's combinational fabric: the M2S address and write
// data muxes and the S2M response mux. The address decoder (SelIdx) is
// settled separately, lane-packed, by the shared gate netlist.
func (l *laneState) comb() {
	mi := int(l.hMaster)
	if mi >= l.nMasters {
		mi = 0
	}
	p := &l.mp[mi]
	l.hTrans = p.trans
	l.hAddr = p.addr
	l.hWrite = p.write
	l.hSize = p.size
	l.hBurst = p.burst

	di := int(l.dataMaster)
	if di >= l.nMasters {
		di = 0
	}
	l.hWdata = l.mp[di].wdata & l.dataMask

	ds := l.dataSlave
	switch {
	case ds >= 0 && ds < l.nSlaves:
		sp := &l.sp[ds]
		l.hRdata = sp.rdata & l.dataMask
		l.hResp = sp.resp
		l.hReady = sp.readyOut
	case ds == -2:
		// Default slave: response lines only; HRDATA parks.
		l.hResp = l.defResp
		l.hReady = l.defReady
	default:
		l.hResp = ahb.RespOkay
		l.hReady = true
	}
}

// endOfCycle snapshots the settled cycle into a CycleInfo record and
// feeds it to the monitor and the analyzer, in the bus hub's attach order
// (monitor first, analyzer second).
func (l *laneState) endOfCycle(period sim.Time) {
	l.cycles++
	ci := ahb.CycleInfo{
		Cycle:      l.cycles,
		Time:       period/2 + sim.Time(l.cycles-1)*period,
		Trans:      l.hTrans,
		Addr:       l.hAddr,
		Write:      l.hWrite,
		Size:       l.hSize,
		Burst:      l.hBurst,
		Wdata:      l.hWdata,
		Master:     l.hMaster,
		Lock:       l.hMastlock,
		SelIdx:     l.selIdx,
		Rdata:      l.hRdata,
		Resp:       l.hResp,
		Ready:      l.hReady,
		DataMaster: l.dataMaster,
		DataSlave:  l.dataSlave,
		GrantIdx:   l.grantIdx,
		Requests:   l.reqMask,
	}
	ci.Handover = ci.Master != l.lastMaster
	l.lastMaster = ci.Master
	l.monitor.ObserveCycle(ci)
	if l.an != nil {
		l.an.observe(ci, l)
	}
}

// laneFlight is one beat in the bus pipeline (ahb's flight), reduced to
// the fields the lane bus actually consumes.
type laneFlight struct {
	addr  uint32
	data  uint32
	write bool
	lock  bool
	size  uint8
	burst uint8
	trans uint8
}

// laneOp is one pre-lowered script op on a master's flat tape: the hot
// per-beat fields of ahb.Op with every per-op derivation (beat count,
// burst code, size default, masked write data, sequence idle) folded in at
// build time. The interpreter streams one dense array per master instead
// of chasing Sequence/Op/Data indirections every cycle.
type laneOp struct {
	kind  ahb.OpKind
	size  uint8
	burst uint8
	lock  bool
	// beats is the burst length, or the idle length for OpIdle.
	beats int32
	addr  uint32
	// dataOff indexes the master's flat pre-masked write-data tape; -1
	// when the op carries no data.
	dataOff int32
	// idleAfter is Sequence.IdleAfter when this op ends its sequence.
	idleAfter int32
	// busy points at the original op when it carries BusyBefore state,
	// which the replay decrements in place exactly like ahb.Master.
	busy *ahb.Op
}

// laneMaster is the script-driven master state machine, a transcription of
// ahb.Master without the kernel plumbing. RETRY/SPLIT rewind handling is
// kept even though a lane pack's memory slaves only ever answer OKAY (the
// default slave adds ERROR), so the state machines stay comparable.
// Flights are embedded values (hasAddr/hasData mark occupancy), the script
// is the pre-lowered tape, and the tape cursor's current op is memoized in
// cur, so the per-edge hot path reads only this struct and one dense tape
// entry.
type laneMaster struct {
	l    *laneState
	port int

	tape     []laneOp
	dataTape []uint32
	tapeIdx  int
	beat     int
	idleCnt  int

	// Current-op memo, maintained by reloadCur (curKind is laneOpNone past
	// the tape's end).
	cur     *laneOp
	curKind ahb.OpKind

	// Last driven beat of the current op, for incremental burst-address
	// stepping (lastBeat is -1 when no beat of this op was driven yet).
	lastBeat int
	lastAddr uint32

	addrPhase  laneFlight
	dataPhase  laneFlight
	hasAddr    bool
	hasData    bool
	rewind     []laneFlight
	mustNonseq bool

	beats uint64
}

// laneOpNone marks an exhausted tape in the curKind memo.
const laneOpNone = ^ahb.OpKind(0)

// lowerScript appends the generated sequences to the master's tape. A
// sequence with no ops wedges ahb.Master's cursor for the rest of the run,
// so lowering stops there to replicate the permanent idle.
func (m *laneMaster) lowerScript(seqs []ahb.Sequence) {
	for si := range seqs {
		seq := &seqs[si]
		if len(seq.Ops) == 0 {
			return
		}
		for oi := range seq.Ops {
			op := &seq.Ops[oi]
			t := laneOp{kind: op.Kind, lock: op.Lock, dataOff: -1}
			if op.Kind == ahb.OpIdle {
				t.beats = int32(op.IdleCycles)
			} else {
				t.beats = int32(opBeats(op))
				t.addr = op.Addr
				t.size = m.sizeOf(op)
				t.burst = opBurstCode(op)
				if op.Kind == ahb.OpWrite && len(op.Data) > 0 {
					t.dataOff = int32(len(m.dataTape))
					for _, d := range op.Data {
						m.dataTape = append(m.dataTape, d&m.l.dataMask)
					}
				}
				if len(op.BusyBefore) > 0 {
					t.busy = op
				}
			}
			if oi == len(seq.Ops)-1 {
				t.idleAfter = int32(seq.IdleAfter)
			}
			m.tape = append(m.tape, t)
		}
	}
}

// reloadCur re-derives the current-op memo after any cursor movement.
func (m *laneMaster) reloadCur() {
	m.cur = nil
	m.curKind = laneOpNone
	m.lastBeat = -1
	if m.tapeIdx < len(m.tape) {
		m.cur = &m.tape[m.tapeIdx]
		m.curKind = m.cur.kind
	}
}

// advanceOp moves the tape cursor past the current op (both the burst and
// the idle paths end an op the same way). idleCnt is always zero here —
// the cursor cannot move during a sequence gap — so assigning the op's
// idleAfter reproduces ahb.Master's end-of-sequence idle exactly.
func (m *laneMaster) advanceOp() {
	m.beat = 0
	m.idleCnt = int(m.cur.idleAfter)
	m.tapeIdx++
	m.reloadCur()
}

// opBeats transcribes ahb.Op's unexported beats method.
func opBeats(o *ahb.Op) int {
	if o.Kind == ahb.OpWrite {
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

// opBurstCode transcribes ahb.Op's unexported burstCode method.
func opBurstCode(o *ahb.Op) uint8 {
	if o.Burst != 0 {
		return o.Burst
	}
	switch opBeats(o) {
	case 1:
		return ahb.BurstSingle
	case 4:
		return ahb.BurstIncr4
	case 8:
		return ahb.BurstIncr8
	case 16:
		return ahb.BurstIncr16
	default:
		return ahb.BurstIncr
	}
}

// tick advances the master by one clock edge (ahb.Master.tick). granted
// is the pre-edge grant line.
func (m *laneMaster) tick(granted bool) {
	hready := m.l.hReady
	resp := m.l.hResp

	// 1. Data-phase completion / error handling.
	if m.hasData {
		if !hready {
			switch resp {
			case ahb.RespRetry, ahb.RespSplit:
				m.rewind = append(m.rewind, m.dataPhase)
				if m.hasAddr && (m.addrPhase.trans == ahb.TransNonseq || m.addrPhase.trans == ahb.TransSeq) {
					m.rewind = append(m.rewind, m.addrPhase)
				}
				m.hasData = false
				m.hasAddr = false
				m.mustNonseq = true
				m.driveIdle()
			default:
				// First ERROR cycle / plain wait state: stats only.
			}
		} else {
			m.hasData = false
			switch resp {
			case ahb.RespOkay, ahb.RespError:
				m.beats++ // completeBeat counts both outcomes
			default:
				m.rewind = append(m.rewind, m.dataPhase)
			}
		}
	}

	if !hready {
		// Address phase is frozen during wait states.
		return
	}

	// 2. The address phase just got sampled: promote it to data phase.
	if m.hasAddr {
		if m.addrPhase.trans == ahb.TransNonseq || m.addrPhase.trans == ahb.TransSeq {
			m.dataPhase = m.addrPhase
			m.hasData = true
			if m.dataPhase.write {
				m.l.mp[m.port].wdata = m.dataPhase.data
			}
		}
		m.hasAddr = false
	}

	// 3. Drive the next address phase.
	m.driveNext(granted)
}

func (m *laneMaster) driveIdle() {
	m.l.mp[m.port].trans = ahb.TransIdle
	m.l.mp[m.port].lock = false
}

func (m *laneMaster) driveNext(granted bool) {
	wantBus := m.hasWork()
	if p := &m.l.mp[m.port]; p.busReq != wantBus {
		p.busReq = wantBus
		m.l.reqMask ^= 1 << uint(m.port)
	}

	if !granted || !wantBus {
		m.driveIdle()
		if wantBus {
			m.mustNonseq = true
		} else {
			m.advanceIdle()
		}
		return
	}

	if len(m.rewind) > 0 {
		f := m.rewind[0]
		m.rewind = m.rewind[1:]
		f.burst, f.trans = ahb.BurstIncr, ahb.TransNonseq
		m.driveFlight(f)
		return
	}

	if m.curKind == laneOpNone || m.curKind == ahb.OpIdle {
		m.driveIdle()
		m.advanceIdle()
		return
	}

	op := m.cur
	if op.busy != nil && m.beat > 0 {
		if left := op.busy.BusyBefore[m.beat]; left > 0 {
			op.busy.BusyBefore[m.beat] = left - 1
			m.l.mp[m.port].trans = ahb.TransBusy
			return
		}
	}

	m.driveFlight(m.flightFor(op))
	m.beat++
	if m.beat >= int(op.beats) {
		m.advanceOp()
	}
}

func (m *laneMaster) hasWork() bool {
	if len(m.rewind) > 0 || m.hasAddr {
		return true
	}
	if m.idleCnt > 0 {
		return false
	}
	return m.curKind != laneOpNone && m.curKind != ahb.OpIdle
}

func (m *laneMaster) advanceIdle() {
	if m.idleCnt > 0 {
		m.idleCnt--
		return
	}
	if m.curKind == ahb.OpIdle {
		if m.beat == 0 {
			m.beat = int(m.cur.beats)
		}
		m.beat--
		if m.beat <= 0 {
			m.advanceOp()
		}
	}
}

func (m *laneMaster) flightFor(op *laneOp) laneFlight {
	var f laneFlight
	f.write, f.size, f.burst, f.lock = op.kind == ahb.OpWrite, op.size, op.burst, op.lock
	if m.beat == 0 {
		f.addr = op.addr
		f.trans = ahb.TransNonseq
	} else if m.mustNonseq {
		f.trans = ahb.TransNonseq
		f.burst = ahb.BurstIncr
		f.addr = m.nextAddr(op)
	} else {
		f.trans = ahb.TransSeq
		f.addr = m.nextAddr(op)
	}
	m.mustNonseq = false
	if f.write && op.dataOff >= 0 {
		f.data = m.dataTape[int(op.dataOff)+m.beat]
	}
	m.lastBeat, m.lastAddr = m.beat, f.addr
	return f
}

// nextAddr returns the burst address of the current beat. Consecutive
// beats step the last driven address forward once (the loop below applied
// to lastAddr's own value), so the common path is one NextBurstAddr call;
// the full fold from op.addr remains for beats driven out of sequence.
func (m *laneMaster) nextAddr(op *laneOp) uint32 {
	if m.beat == m.lastBeat+1 {
		return ahb.NextBurstAddr(m.lastAddr, op.burst, op.size)
	}
	addr := op.addr
	for i := 0; i < m.beat; i++ {
		addr = ahb.NextBurstAddr(addr, op.burst, op.size)
	}
	return addr
}

func (m *laneMaster) sizeOf(op *ahb.Op) uint8 {
	if op.Size == 0 && m.l.dataWidth == 32 {
		return ahb.Size32
	}
	return op.Size
}

func (m *laneMaster) driveFlight(f laneFlight) {
	m.addrPhase = f
	m.hasAddr = true
	p := &m.l.mp[m.port]
	p.trans = f.trans
	p.addr = f.addr
	p.write = f.write
	p.size = f.size
	p.burst = f.burst
	p.lock = f.lock
}

// laneSlave is ahb.MemorySlave without the kernel plumbing.
type laneSlave struct {
	l     *laneState
	port  int
	waits int

	pending  bool
	pAddr    uint32
	pWrite   bool
	waitLeft int

	mem laneMem
}

func newLaneSlave(l *laneState, port int, s topo.Slave) laneSlave {
	return laneSlave{l: l, port: port, waits: s.Waits, mem: newLaneMem(s.Regions)}
}

func (s *laneSlave) tick() {
	hready := s.l.hReady

	if s.pending {
		if s.waitLeft > 0 {
			s.waitLeft--
			if s.waitLeft == 0 {
				s.finishPhase()
			}
			return
		}
		if hready {
			if s.pWrite {
				s.mem.store(s.pAddr>>2, s.l.hWdata)
			}
			s.pending = false
		}
	}

	if !hready {
		return
	}

	t := s.l.hTrans
	if s.l.selIdx == s.port && (t == ahb.TransNonseq || t == ahb.TransSeq) {
		s.pending = true
		s.pAddr = s.l.hAddr
		s.pWrite = s.l.hWrite
		s.l.sp[s.port].resp = ahb.RespOkay
		if s.waits > 0 {
			s.waitLeft = s.waits
			s.l.sp[s.port].readyOut = false
		} else {
			s.finishPhase()
		}
	} else {
		s.l.sp[s.port].readyOut = true
		s.l.sp[s.port].resp = ahb.RespOkay
	}
}

func (s *laneSlave) finishPhase() {
	s.l.sp[s.port].readyOut = true
	if !s.pWrite {
		s.l.sp[s.port].rdata = s.mem.load(s.pAddr >> 2)
	}
}

// denseMemLimit bounds the dense backing-store size: slaves whose mapped
// region span fits in this many bytes get a flat slice (no hashing on the
// hot path); sparser maps fall back to ahb.MemorySlave's map layout.
const denseMemLimit = 4 << 20

// laneMem is a word-addressed, zero-default memory, dense when the
// slave's address span allows it.
type laneMem struct {
	base  uint32 // word index of the dense window's first entry
	dense []uint32
	m     map[uint32]uint32
}

func newLaneMem(regions []topo.AddrRange) laneMem {
	lo, hi := uint64(1)<<32, uint64(0)
	for _, r := range regions {
		if r.Size == 0 {
			continue
		}
		if uint64(r.Start) < lo {
			lo = uint64(r.Start)
		}
		if r.End() > hi {
			hi = r.End()
		}
	}
	if hi > lo && hi-lo <= denseMemLimit {
		return laneMem{base: uint32(lo >> 2), dense: make([]uint32, (hi+3)/4-lo/4)}
	}
	return laneMem{m: map[uint32]uint32{}}
}

func (mm *laneMem) load(word uint32) uint32 {
	if mm.dense != nil {
		if i := word - mm.base; i < uint32(len(mm.dense)) {
			return mm.dense[i]
		}
		return 0
	}
	return mm.m[word]
}

func (mm *laneMem) store(word, v uint32) {
	if mm.dense != nil {
		if i := word - mm.base; i < uint32(len(mm.dense)) {
			mm.dense[i] = v
		}
		return
	}
	mm.m[word] = v
}
