package core

import (
	"fmt"
	"math"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/metrics"
	"ahbpower/internal/power"
	"ahbpower/internal/probe"
	"ahbpower/internal/stats"
)

// Style selects how the power model is integrated into the executable
// specification — the three alternatives of the paper's Fig. 1.
type Style uint8

// Power-model integration styles.
const (
	// StyleGlobal implements the power analysis "in a further specific
	// module": the analyzer observes only the shared (muxed) bus signals
	// once per settled cycle. Most reusable, least intrusive, slight
	// approximation of mux input activity.
	StyleGlobal Style = iota
	// StyleLocal adds a monitor FSM to the bus module itself: besides the
	// shared signals it reads every master/slave port, capturing input-side
	// activity the global analyzer cannot see.
	StyleLocal
	// StylePrivate instruments the components: signal watchers count every
	// transition, including multi-delta glitches, at the highest accuracy
	// and the highest simulation cost.
	StylePrivate
)

// String names the style.
func (s Style) String() string {
	switch s {
	case StyleGlobal:
		return "global"
	case StyleLocal:
		return "local"
	case StylePrivate:
		return "private"
	}
	return fmt.Sprintf("style(%d)", uint8(s))
}

// AnalyzerConfig parameterizes the power analyzer.
type AnalyzerConfig struct {
	Style Style
	Tech  power.Tech
	// RecordActivity keeps per-signal bit-change counters (the paper's
	// Activity object, see Analyzer.Activity) at the cost of a few
	// integer additions per cycle; it changes no energy.
	RecordActivity bool
	// DPM, when non-nil, enables the dynamic-power-management savings
	// estimator (see DPMConfig).
	DPM *DPMConfig
	// Models, when non-nil, supplies characterized macromodels (e.g.
	// loaded with power.LoadModels) instead of the structural defaults —
	// the IP-reuse flow of the paper's §2.
	Models *power.Models
	// Trace, when non-nil, subscribes a streaming power-trace recorder
	// to the analyzer's per-cycle sample stream (see internal/metrics).
	// Use one Trace per run. When nil and no other sample observer is
	// attached, no samples are published and the stream costs nothing.
	Trace *metrics.Trace
}

// Validate refuses analyzer constants that would make every reported
// energy meaningless. The zero Tech selects power.DefaultTech; any other
// Tech must set VDD, CPD and CO positive and finite. A DPM wake-up energy
// must be non-negative and finite.
func (cfg AnalyzerConfig) Validate() error {
	if t := cfg.Tech; t != (power.Tech{}) {
		for _, c := range []struct {
			name string
			v    float64
		}{{"VDD", t.VDD}, {"CPD", t.CPD}, {"CO", t.CO}} {
			if !(c.v > 0) || math.IsInf(c.v, 1) {
				return fmt.Errorf("core: Tech.%s=%g, want positive and finite", c.name, c.v)
			}
		}
	}
	if cfg.DPM != nil {
		if w := cfg.DPM.WakeEnergy; !(w >= 0) || math.IsInf(w, 1) {
			return fmt.Errorf("core: DPM.WakeEnergy=%g J, want non-negative and finite", w)
		}
	}
	return nil
}

// Analyzer computes, cycle by cycle, the energy of each AHB sub-block from
// the energy macromodels, classifies the cycle in the power FSM, and
// accumulates Table 1 / Figs. 3-6 data. It corresponds to the paper's
// power_fsm plus get_activity instrumentation, compiled in only when
// requested (the POWERTEST switch is the decision to call Attach at all).
type Analyzer struct {
	cfg AnalyzerConfig
	sys *System

	dec *power.DecoderModel
	m2s *power.MuxModel
	s2m *power.MuxModel
	arb *power.ArbiterModel

	fsm      *power.FSM
	bd       power.Breakdown
	activity *power.Activity
	dpm      *dpmState

	// samples fans the per-cycle energy decomposition out to streaming
	// consumers (trace recorders, exporters). Publishing is skipped
	// entirely while no observer is attached. Samples are constructed
	// into sampleBuf and delivered in batches of sampleBatch records —
	// one dynamic dispatch per batch instead of per cycle — with a flush
	// at the end of every System run and before Report.
	samples   probe.Hub[metrics.Sample]
	sampleBuf []metrics.Sample

	// regs is the per-cycle register file; it is also what the analyzer's
	// snapshot serializes (see analyzerState).
	regs analyzerRegs
}

// analyzerRegs is the analyzer's per-cycle register file: the previous
// cycle's values the macromodels take Hamming distances against, the
// classifier's last transferring master, the private style's glitch
// accumulators (filled by signal watchers, drained once per cycle) and
// the local style's per-port history. The analyzer runs on this struct
// and its snapshot embeds it, so a register added here is checkpointed
// with no further code.
type analyzerRegs struct {
	HavePrev   bool   `json:"have_prev,omitempty"`
	PrevDecIn  uint64 `json:"prev_dec_in,omitempty"`
	PrevAddr   uint32 `json:"prev_addr,omitempty"`
	PrevCtrl   uint64 `json:"prev_ctrl,omitempty"`
	PrevWdata  uint32 `json:"prev_wdata,omitempty"`
	PrevRdata  uint32 `json:"prev_rdata,omitempty"`
	PrevS2MCtl uint64 `json:"prev_s2m_ctl,omitempty"`
	PrevM2SSel uint64 `json:"prev_m2s_sel,omitempty"`
	PrevS2MSel uint64 `json:"prev_s2m_sel,omitempty"`
	PrevReq    uint16 `json:"prev_req,omitempty"`
	PrevGrant  uint16 `json:"prev_grant,omitempty"`

	LastActiveMaster uint8 `json:"last_active_master,omitempty"`
	HaveActive       bool  `json:"have_active,omitempty"`

	PrivM2S int `json:"priv_m2s,omitempty"`
	PrivS2M int `json:"priv_s2m,omitempty"`
	PrivDec int `json:"priv_dec,omitempty"`
	PrivArb int `json:"priv_arb,omitempty"`

	LocalPrev  []uint64 `json:"local_prev,omitempty"`
	LocalFirst bool     `json:"local_first,omitempty"`
}

// Attach builds an analyzer and hooks it into the system. It must be
// called before the simulation starts.
func Attach(sys *System, cfg AnalyzerConfig) (*Analyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bus := sys.Bus
	models, err := power.ResolveModels(cfg.Models, bus.Cfg.NumMasters, bus.Cfg.NumSlaves, bus.Cfg.DataWidth, cfg.Tech)
	if err != nil {
		return nil, err
	}
	a := &Analyzer{
		cfg: cfg,
		sys: sys,
		dec: models.Dec,
		m2s: models.M2S,
		s2m: models.S2M,
		arb: models.Arb,
		fsm: power.NewFSM(),
	}
	if cfg.RecordActivity {
		a.activity = new(power.Activity)
	}
	if cfg.DPM != nil {
		a.dpm = newDPMState(*cfg.DPM)
	}
	if cfg.Style == StylePrivate {
		a.attachWatchers()
	}
	if cfg.Style == StyleLocal {
		a.regs.LocalPrev = make([]uint64, 3*len(bus.M)+2*len(bus.S))
	}
	if cfg.Trace != nil {
		a.samples.Attach(cfg.Trace)
	}
	bus.Observe(a)
	sys.onRunEnd(a.FlushSamples)
	return a, nil
}

// sampleBatch is the sample-stream batch size: large enough to amortize
// the per-batch dispatch, small enough that a flushed batch still fits in
// cache while the trace recorder folds it into windows.
const sampleBatch = 256

// FlushSamples delivers any buffered per-cycle samples to the attached
// sample observers. It runs automatically at the end of every System run
// (and before Report), so it only needs to be called explicitly when
// reading a streaming consumer mid-run.
func (a *Analyzer) FlushSamples() {
	if len(a.sampleBuf) == 0 {
		return
	}
	a.samples.PublishBatch(a.sampleBuf)
	a.sampleBuf = a.sampleBuf[:0]
}

// ObserveSamples attaches an observer to the analyzer's per-cycle sample
// stream. Call before the simulation starts.
func (a *Analyzer) ObserveSamples(o probe.Observer[metrics.Sample]) {
	a.samples.Attach(o)
}

// attachWatchers installs the private-style transition counters directly
// on the component output signals.
func (a *Analyzer) attachWatchers() {
	bus := a.sys.Bus
	bus.HAddr.Watch(func(o, n uint32) { a.regs.PrivM2S += stats.Hamming32(o, n) })
	bus.HWdata.Watch(func(o, n uint32) { a.regs.PrivM2S += stats.Hamming32(o, n) })
	bus.HTrans.Watch(func(o, n uint8) { a.regs.PrivM2S += stats.Hamming(uint64(o), uint64(n)) })
	bus.HWrite.Watch(func(o, n bool) { a.regs.PrivM2S += stats.HammingBool(o, n) })
	bus.HSize.Watch(func(o, n uint8) { a.regs.PrivM2S += stats.Hamming(uint64(o), uint64(n)) })
	bus.HBurst.Watch(func(o, n uint8) { a.regs.PrivM2S += stats.Hamming(uint64(o), uint64(n)) })
	bus.HRdata.Watch(func(o, n uint32) { a.regs.PrivS2M += stats.Hamming32(o, n) })
	bus.HResp.Watch(func(o, n uint8) { a.regs.PrivS2M += stats.Hamming(uint64(o), uint64(n)) })
	bus.HReady.Watch(func(o, n bool) { a.regs.PrivS2M += stats.HammingBool(o, n) })
	bus.SelIdx.Watch(func(o, n int) { a.regs.PrivDec += stats.Hamming(a.encodeSel(o), a.encodeSel(n)) })
	for m := range bus.Grant {
		bus.Grant[m].Watch(func(o, n bool) { a.regs.PrivArb += stats.HammingBool(o, n) })
		bus.M[m].BusReq.Watch(func(o, n bool) { a.regs.PrivArb += stats.HammingBool(o, n) })
	}
}

// encodeSel maps a decoded slave index to the decoder-input binary code.
func (a *Analyzer) encodeSel(idx int) uint64 {
	if idx >= 0 {
		return uint64(idx)
	}
	return uint64(a.sys.Bus.Cfg.NumSlaves) // default-slave code
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

// ObserveCycle implements probe.Observer over the bus-cycle stream: it is
// the per-cycle analysis hook computing sub-block energies, classifying
// the cycle in the power FSM and accumulating the report data.
func (a *Analyzer) ObserveCycle(ci ahb.CycleInfo) {
	bus := a.sys.Bus
	state := a.classify(ci)

	if a.cfg.Style == StyleLocal && !a.regs.HavePrev {
		// Prime the per-port history so the first measured cycle does not
		// count transitions from the zero state.
		a.regs.LocalFirst = true
		a.localM2SInputHD()
		a.localS2MInputHD()
		a.regs.LocalFirst = false
	}

	decIn := a.encodeSel(ci.SelIdx)
	ctrl := packCtrl(ci)
	s2mCtl := uint64(ci.Resp) & 3
	if ci.Ready {
		s2mCtl |= 4
	}
	m2sSel := uint64(ci.Master) | uint64(ci.DataMaster)<<4
	s2mSel := a.encodeSel(ci.DataSlave) // -1 and -2 fold to the spare code
	if ci.DataSlave == -1 {
		s2mSel = uint64(bus.Cfg.NumSlaves)
	}
	grant := uint16(1) << ci.GrantIdx

	if a.activity != nil {
		a.activity.Samples++
	}

	var eDEC, eM2S, eS2M, eARB float64
	if a.regs.HavePrev {
		hdDec := stats.Hamming(a.regs.PrevDecIn, decIn)
		hdAddr := stats.Hamming32(a.regs.PrevAddr, ci.Addr)
		hdCtrl := stats.Hamming(a.regs.PrevCtrl, ctrl)
		hdWdata := stats.Hamming32(a.regs.PrevWdata, ci.Wdata)
		hdRdata := stats.Hamming32(a.regs.PrevRdata, ci.Rdata)
		hdS2MCtl := stats.Hamming(a.regs.PrevS2MCtl, s2mCtl)
		hdM2SSel := stats.Hamming(a.regs.PrevM2SSel, m2sSel)
		hdS2MSel := stats.Hamming(a.regs.PrevS2MSel, s2mSel)
		hdReq := stats.Hamming(uint64(a.regs.PrevReq), uint64(ci.Requests))
		hdGrant := stats.Hamming(uint64(a.regs.PrevGrant), uint64(grant))

		if act := a.activity; act != nil {
			// The shared bus signals, before the private style swaps in
			// its glitch counts. HTRANS is the low two bits of the control
			// word, HMASTER the low nibble of the M2S select (at most 16
			// masters).
			act.BitChanges[power.SignalHADDR] += uint64(hdAddr)
			act.BitChanges[power.SignalHWDATA] += uint64(hdWdata)
			act.BitChanges[power.SignalHRDATA] += uint64(hdRdata)
			act.BitChanges[power.SignalHTRANS] += uint64(stats.Hamming(a.regs.PrevCtrl&3, ctrl&3))
			act.BitChanges[power.SignalHMASTER] += uint64(stats.Hamming(a.regs.PrevM2SSel&0xF, m2sSel&0xF))
			act.BitChanges[power.SignalHBUSREQ] += uint64(hdReq)
			act.BitChanges[power.SignalHGRANT] += uint64(hdGrant)
			act.BitChanges[power.SignalHSEL] += uint64(hdDec)
		}

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
		switch a.cfg.Style {
		case StyleLocal:
			// The local monitor reads every master port: input activity is
			// measured, not approximated from the muxed outputs.
			m2sIn = a.localM2SInputHD()
			s2mIn = a.localS2MInputHD()
		case StylePrivate:
			// Watchers counted every transition including glitches.
			m2sIn, m2sOut = a.regs.PrivM2S, a.regs.PrivM2S
			s2mIn, s2mOut = a.regs.PrivS2M, a.regs.PrivS2M
			hdDec = a.regs.PrivDec
			hdReq = 0 // folded into privArb
			hdGrant = a.regs.PrivArb
			a.regs.PrivM2S, a.regs.PrivS2M, a.regs.PrivDec, a.regs.PrivArb = 0, 0, 0, 0
		}

		eDEC = a.dec.Energy(hdDec)
		eM2S = a.m2s.Energy(m2sIn, hdM2SSel, m2sOut) + a.m2s.ClockEnergy()
		eS2M = a.s2m.Energy(s2mIn, hdS2MSel, s2mOut) + a.s2m.ClockEnergy()
		eARB = a.arb.Energy(hdReq, hdGrant, ci.Handover, state == power.IdleHO)
	}

	a.regs.PrevDecIn = decIn
	a.regs.PrevAddr = ci.Addr
	a.regs.PrevCtrl = ctrl
	a.regs.PrevWdata = ci.Wdata
	a.regs.PrevRdata = ci.Rdata
	a.regs.PrevS2MCtl = s2mCtl
	a.regs.PrevM2SSel = m2sSel
	a.regs.PrevS2MSel = s2mSel
	a.regs.PrevReq = ci.Requests
	a.regs.PrevGrant = grant
	a.regs.HavePrev = true

	total := eDEC + eM2S + eS2M + eARB
	a.bd.Add(power.BlockDEC, eDEC)
	a.bd.Add(power.BlockM2S, eM2S)
	a.bd.Add(power.BlockS2M, eS2M)
	a.bd.Add(power.BlockARB, eARB)

	a.fsm.Step(state, total)
	if a.dpm != nil {
		// Only the clock-tree component is gateable; see DPMConfig.
		a.dpm.observe(state, a.m2s.ClockEnergy()+a.s2m.ClockEnergy())
	}

	if a.samples.Len() > 0 {
		a.sampleBuf = append(a.sampleBuf, metrics.Sample{
			Cycle:  ci.Cycle,
			Time:   ci.Time,
			State:  state,
			EM2S:   eM2S,
			EDEC:   eDEC,
			EARB:   eARB,
			ES2M:   eS2M,
			ETotal: total,
		})
		if len(a.sampleBuf) >= sampleBatch {
			a.FlushSamples()
		}
	}
}

// localHD updates one slot of the per-port history and returns the
// Hamming distance to the previous sample.
func (a *Analyzer) localHD(slot int, v uint64) int {
	hd := 0
	if !a.regs.LocalFirst {
		hd = stats.Hamming(a.regs.LocalPrev[slot], v)
	}
	a.regs.LocalPrev[slot] = v
	return hd
}

// localM2SInputHD measures per-master input activity (local style): the
// monitor FSM inside the bus module reads every master port directly
// instead of approximating input activity from the muxed outputs.
func (a *Analyzer) localM2SInputHD() int {
	bus := a.sys.Bus
	hd := 0
	for m := range bus.M {
		p := &bus.M[m]
		base := 3 * m
		hd += a.localHD(base, uint64(p.Addr.Read()))
		hd += a.localHD(base+1, uint64(p.Wdata.Read()))
		hd += a.localHD(base+2, uint64(p.Trans.Read()))
	}
	return hd
}

// localS2MInputHD measures per-slave output activity (local style).
func (a *Analyzer) localS2MInputHD() int {
	bus := a.sys.Bus
	hd := 0
	off := 3 * len(bus.M)
	for s := range bus.S {
		p := &bus.S[s]
		base := off + 2*s
		hd += a.localHD(base, uint64(p.Rdata.Read()))
		hd += a.localHD(base+1, uint64(p.Resp.Read()))
	}
	return hd
}

// classify maps a settled bus cycle to one of the paper's four activity
// modes. BUSY cycles count as idle datapath cycles. An idle cycle belongs
// to IDLE_HO — "IDLE with bus handover" — when the bus is inside an
// arbitration window: the last master that actually transferred data has
// released its request (so ownership is being handed over), or ownership
// changed in this very cycle. An idle cycle while the transferring master
// still holds the bus (e.g. BUSY or an idle op with the request kept) is
// plain IDLE.
func (a *Analyzer) classify(ci ahb.CycleInfo) power.State {
	if ci.Trans == ahb.TransNonseq || ci.Trans == ahb.TransSeq {
		a.regs.LastActiveMaster = ci.Master
		a.regs.HaveActive = true
		if ci.Write {
			return power.Write
		}
		return power.Read
	}
	if !a.regs.HaveActive {
		return power.Idle
	}
	released := ci.Requests&(1<<a.regs.LastActiveMaster) == 0
	if ci.Handover || released || ci.Master != a.regs.LastActiveMaster {
		return power.IdleHO
	}
	return power.Idle
}

// FSM exposes the instruction statistics.
func (a *Analyzer) FSM() *power.FSM { return a.fsm }

// Breakdown exposes the per-block energy accumulation.
func (a *Analyzer) Breakdown() *power.Breakdown { return &a.bd }

// Activity exposes the per-signal switching counters (nil unless enabled).
func (a *Analyzer) Activity() *power.Activity { return a.activity }

// DPM returns the dynamic-power-management estimate, or nil when the
// estimator was not enabled.
func (a *Analyzer) DPM() *DPMEstimate {
	if a.dpm == nil {
		return nil
	}
	est := a.dpm.Estimate
	return &est
}
