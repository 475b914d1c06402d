package lane

import (
	"fmt"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
	"ahbpower/internal/power"
	"ahbpower/internal/stats"
)

// laneAnalyzer is the per-lane transcription of core.Analyzer's cycle
// hook: the same activity words, the same Hamming distances against the
// same previous-cycle snapshot, the same macromodel calls in the same
// order, feeding the same power.FSM accumulator — so a lane's report is
// Float64bits-identical to the event backend's. Features it cannot
// reproduce (private-style glitch counting, DPM, streaming trace
// recorders) are kept out of packs by the exec capability table; the
// constructor rejects them again defensively.
type laneAnalyzer struct {
	style   core.Style
	nSlaves int

	dec *power.DecoderModel
	m2s *power.MuxModel
	s2m *power.MuxModel
	arb *power.ArbiterModel

	fsm *power.FSM
	bd  power.Breakdown

	// Previous-cycle snapshot for Hamming distances.
	havePrev   bool
	prevDecIn  uint64
	prevAddr   uint32
	prevCtrl   uint64
	prevWdata  uint32
	prevRdata  uint32
	prevS2MCtl uint64
	prevM2SSel uint64
	prevS2MSel uint64
	prevReq    uint16
	prevGrant  uint16

	lastActiveMaster uint8
	haveActive       bool

	// Local-style per-port history (previous sampled values).
	localPrev  []uint64
	localFirst bool
}

// newLaneAnalyzer resolves the lane's macromodels exactly as core.Attach
// does (power.ResolveModels) and builds its per-lane analyzer state.
func newLaneAnalyzer(cfg core.AnalyzerConfig, nMasters, nSlaves, dataWidth int) (*laneAnalyzer, error) {
	switch {
	case cfg.Style == core.StylePrivate:
		return nil, fmt.Errorf("lane: private-style instrumentation is not lane-executable")
	case cfg.DPM != nil:
		return nil, fmt.Errorf("lane: DPM estimator is not lane-executable")
	case cfg.Trace != nil:
		return nil, fmt.Errorf("lane: streaming trace recorder is not lane-executable")
	}
	models, err := power.ResolveModels(cfg.Models, nMasters, nSlaves, dataWidth, cfg.Tech)
	if err != nil {
		return nil, err
	}
	a := &laneAnalyzer{
		style:   cfg.Style,
		nSlaves: nSlaves,
		dec:     models.Dec,
		m2s:     models.M2S,
		s2m:     models.S2M,
		arb:     models.Arb,
		fsm:     power.NewFSM(),
	}
	if cfg.Style == core.StyleLocal {
		a.localPrev = make([]uint64, 3*nMasters+2*nSlaves)
	}
	return a, nil
}

// encodeSel maps a decoded slave index to the decoder-input binary code.
func (a *laneAnalyzer) encodeSel(idx int) uint64 {
	if idx >= 0 {
		return uint64(idx)
	}
	return uint64(a.nSlaves) // default-slave code
}

// packCtrl packs the muxed control lines into one activity word.
func packCtrl(ci ahb.CycleInfo) uint64 {
	v := uint64(ci.Trans) & 3
	if ci.Write {
		v |= 1 << 2
	}
	v |= uint64(ci.Size&7) << 3
	v |= uint64(ci.Burst&7) << 6
	return v
}

// observe is the per-cycle analysis hook (core.Analyzer.ObserveCycle with
// the lane's plain-field ports in place of the kernel signals).
func (a *laneAnalyzer) observe(ci ahb.CycleInfo, l *laneState) {
	state := a.classify(ci)

	if a.style == core.StyleLocal && !a.havePrev {
		// Prime the per-port history so the first measured cycle does not
		// count transitions from the zero state.
		a.localFirst = true
		a.localM2SInputHD(l)
		a.localS2MInputHD(l)
		a.localFirst = false
	}

	decIn := a.encodeSel(ci.SelIdx)
	ctrl := packCtrl(ci)
	s2mCtl := uint64(ci.Resp) & 3
	if ci.Ready {
		s2mCtl |= 4
	}
	m2sSel := uint64(ci.Master) | uint64(ci.DataMaster)<<4
	s2mSel := a.encodeSel(ci.DataSlave) // -1 and -2 fold to the spare code

	grant := uint16(1) << ci.GrantIdx

	var eDEC, eM2S, eS2M, eARB float64
	if a.havePrev {
		hdDec := stats.Hamming(a.prevDecIn, decIn)
		hdAddr := stats.Hamming32(a.prevAddr, ci.Addr)
		hdCtrl := stats.Hamming(a.prevCtrl, ctrl)
		hdWdata := stats.Hamming32(a.prevWdata, ci.Wdata)
		hdRdata := stats.Hamming32(a.prevRdata, ci.Rdata)
		hdS2MCtl := stats.Hamming(a.prevS2MCtl, s2mCtl)
		hdM2SSel := stats.Hamming(a.prevM2SSel, m2sSel)
		hdS2MSel := stats.Hamming(a.prevS2MSel, s2mSel)
		hdReq := stats.Hamming(uint64(a.prevReq), uint64(ci.Requests))
		hdGrant := stats.Hamming(uint64(a.prevGrant), uint64(grant))

		m2sOut := hdAddr + hdCtrl + hdWdata
		s2mOut := hdRdata + hdS2MCtl

		// Global-style input estimate: output activity stands in for input
		// activity, except in re-steer cycles where output churn comes
		// from the select change, not from the inputs.
		m2sIn, s2mIn := m2sOut, s2mOut
		if hdM2SSel > 0 {
			m2sIn = 0
		}
		if hdS2MSel > 0 {
			s2mIn = 0
		}
		if a.style == core.StyleLocal {
			// The local monitor reads every master port: input activity is
			// measured, not approximated from the muxed outputs.
			m2sIn = a.localM2SInputHD(l)
			s2mIn = a.localS2MInputHD(l)
		}

		eDEC = a.dec.Energy(hdDec)
		eM2S = a.m2s.Energy(m2sIn, hdM2SSel, m2sOut) + a.m2s.ClockEnergy()
		eS2M = a.s2m.Energy(s2mIn, hdS2MSel, s2mOut) + a.s2m.ClockEnergy()
		eARB = a.arb.Energy(hdReq, hdGrant, ci.Handover, state == power.IdleHO)
	}

	a.prevDecIn = decIn
	a.prevAddr = ci.Addr
	a.prevCtrl = ctrl
	a.prevWdata = ci.Wdata
	a.prevRdata = ci.Rdata
	a.prevS2MCtl = s2mCtl
	a.prevM2SSel = m2sSel
	a.prevS2MSel = s2mSel
	a.prevReq = ci.Requests
	a.prevGrant = grant
	a.havePrev = true

	total := eDEC + eM2S + eS2M + eARB
	a.bd.Add(power.BlockDEC, eDEC)
	a.bd.Add(power.BlockM2S, eM2S)
	a.bd.Add(power.BlockS2M, eS2M)
	a.bd.Add(power.BlockARB, eARB)

	a.fsm.Step(state, total)
}

// localHD updates one slot of the per-port history and returns the
// Hamming distance to the previous sample.
func (a *laneAnalyzer) localHD(slot int, v uint64) int {
	hd := 0
	if !a.localFirst {
		hd = stats.Hamming(a.localPrev[slot], v)
	}
	a.localPrev[slot] = v
	return hd
}

// localM2SInputHD measures per-master input activity (local style).
func (a *laneAnalyzer) localM2SInputHD(l *laneState) int {
	hd := 0
	for m := range l.mp {
		p := &l.mp[m]
		base := 3 * m
		hd += a.localHD(base, uint64(p.addr))
		hd += a.localHD(base+1, uint64(p.wdata))
		hd += a.localHD(base+2, uint64(p.trans))
	}
	return hd
}

// localS2MInputHD measures per-slave output activity (local style).
func (a *laneAnalyzer) localS2MInputHD(l *laneState) int {
	hd := 0
	off := 3 * len(l.mp)
	for s := range l.sp {
		p := &l.sp[s]
		base := off + 2*s
		hd += a.localHD(base, uint64(p.rdata))
		hd += a.localHD(base+1, uint64(p.resp))
	}
	return hd
}

// classify maps a settled bus cycle to one of the paper's four activity
// modes (core.Analyzer.classify).
func (a *laneAnalyzer) classify(ci ahb.CycleInfo) power.State {
	if ci.Trans == ahb.TransNonseq || ci.Trans == ahb.TransSeq {
		a.lastActiveMaster = ci.Master
		a.haveActive = true
		if ci.Write {
			return power.Write
		}
		return power.Read
	}
	if !a.haveActive {
		return power.Idle
	}
	released := ci.Requests&(1<<a.lastActiveMaster) == 0
	if ci.Handover || released || ci.Master != a.lastActiveMaster {
		return power.IdleHO
	}
	return power.Idle
}
