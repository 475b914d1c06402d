package power

import (
	"fmt"

	"ahbpower/internal/stats"
)

// DecoderModel is the paper's closed-form dynamic-energy macromodel for a
// parametric one-hot address decoder:
//
//	E_DEC = (VDD²/4) · (n_I · n_O · C_PD · HD_IN + 2 · HD_OUT · C_O)
//
// where n_O is the number of outputs (slaves), n_I the first integer
// greater than log2(n_O−1), HD_IN the Hamming distance between two
// consecutive inputs, and HD_OUT is 1 when HD_IN ≥ 1 (a one-hot decoder
// moves exactly two output lines whenever its input changes).
type DecoderModel struct {
	NO   int // number of outputs (slaves on the bus)
	NI   int // input width, derived from NO
	Tech Tech
	// CHD and CEvent, when positive, replace the closed-form coefficients
	// with characterized ones (switched capacitance per unit HD_IN and per
	// input-change event) — the result of a gate-level fit.
	CHD    float64 `json:",omitempty"`
	CEvent float64 `json:",omitempty"`
}

// NewDecoderModel builds the model for a decoder with nO outputs.
func NewDecoderModel(nO int, tech Tech) (*DecoderModel, error) {
	if nO < 2 {
		return nil, fmt.Errorf("power: decoder model needs >=2 outputs, got %d", nO)
	}
	return &DecoderModel{NO: nO, NI: stats.PaperNI(nO), Tech: tech}, nil
}

// Energy returns the dynamic energy for one input transition with the
// given input Hamming distance. Characterized coefficients (CHD/CEvent)
// take precedence over the closed form when set.
func (m *DecoderModel) Energy(hdIn int) float64 {
	if hdIn <= 0 {
		return 0
	}
	if m.CHD > 0 {
		return m.Tech.EnergyPerCap(m.CHD*float64(hdIn) + m.CEvent)
	}
	hdOut := 1.0
	c := float64(m.NI)*float64(m.NO)*m.Tech.CPD*float64(hdIn) + 2*hdOut*m.Tech.CO
	return m.Tech.EnergyPerCap(c)
}

// MuxModel is the dynamic-energy macromodel of a w-bit n:1 AND-OR
// multiplexer, the paper's E_MUX = f(w, n, HD_IN, HD_SEL). The concrete
// form used here is linear in the three activity terms:
//
//	E_MUX = (VDD²/4) · (C_in·HD_IN + C_sel·HD_SEL + C_out·HD_OUT)
//
// with structural default coefficients derived from the AND-OR topology;
// internal/charact can refit them against a gate-level netlist (the role
// SIS plays in the paper).
type MuxModel struct {
	W    int // data width in bits
	N    int // number of inputs
	Tech Tech

	// Switched capacitance per unit Hamming distance. Zero values are
	// replaced by structural defaults in NewMuxModel.
	CIn  float64 // per toggling data-input bit
	CSel float64 // per toggling select bit
	COut float64 // per toggling output bit
	// CClkCycle is the switched capacitance charged every clock cycle for
	// the mux's pipeline/select registers and bus keepers — the part of
	// the datapath a clock-gating controller can switch off while the bus
	// idles (the run-time power-management extension of §4).
	CClkCycle float64
}

// NewMuxModel builds a mux macromodel with structural default
// coefficients:
//
//   - a data-input toggle switches its input net and, with probability 1/n,
//     its AND mask and part of the OR tree: C_in = C_PD·(1 + depth/n);
//   - a select toggle re-steers the one-hot decode (2 lines × n_I nodes)
//     and re-masks on average w/2 internal AND nodes; the resulting output
//     transitions are charged separately through the C_out·HD_OUT term:
//     C_sel = C_PD·(2·n_I(n) + w/2);
//   - every output toggle drives a bus node: C_out = C_O.
//
// depth is the OR-tree depth ceil(log2 n).
func NewMuxModel(w, n int, tech Tech) (*MuxModel, error) {
	if w < 1 || n < 2 {
		return nil, fmt.Errorf("power: mux model needs w>=1 n>=2, got w=%d n=%d", w, n)
	}
	depth := float64(stats.CeilLog2(n))
	ni := float64(stats.PaperNI(n))
	return &MuxModel{
		W:         w,
		N:         n,
		Tech:      tech,
		CIn:       tech.CPD * (1 + depth/float64(n)),
		CSel:      tech.CPD * (2*ni + float64(w)/2),
		COut:      tech.CO,
		CClkCycle: tech.CPD * 0.05 * float64(w),
	}, nil
}

// Energy returns the dynamic energy for one cycle given the Hamming
// distances of the data inputs, select inputs and outputs.
func (m *MuxModel) Energy(hdIn, hdSel, hdOut int) float64 {
	c := m.CIn*float64(hdIn) + m.CSel*float64(hdSel) + m.COut*float64(hdOut)
	return m.Tech.EnergyPerCap(c)
}

// ClockEnergy returns the per-cycle clocking energy of the mux's registers
// and keepers, paid whether or not data moves (unless gated).
func (m *MuxModel) ClockEnergy() float64 {
	return m.Tech.EnergyPerCap(m.CClkCycle)
}

// ArbiterModel is the energy-annotated FSM macromodel of the bus arbiter
// (the paper's "simple FSM ... to model the energy requirement of a
// simplified version of the arbiter"). Requests toggle the priority
// network; grant changes toggle the grant register and its output lines,
// plus a fixed re-arbitration term per handover.
type ArbiterModel struct {
	N    int // number of masters
	Tech Tech

	CReq      float64 // switched capacitance per request-line toggle
	CGrant    float64 // per grant-line toggle
	CHandover float64 // extra switched capacitance per grant change event
	// CActive is charged for every cycle the arbiter FSM spends actively
	// re-arbitrating (the bus-handover window between sequences). The
	// paper's Table 1 assigns IDLE_HO instructions energies of the same
	// order as data transfers (14.7 pJ vs 14.7-19.8 pJ): the handover
	// window keeps the priority network, grant register and master-number
	// datapath churning even though no data moves. The default is
	// calibrated to land IDLE_HO instructions in that band.
	CActive float64
}

// NewArbiterModel builds the arbiter macromodel with structural defaults:
// each request line feeds on the order of n/2 priority gates; each grant
// toggle moves a flop and an output line; a handover re-evaluates the
// whole priority chain.
func NewArbiterModel(n int, tech Tech) (*ArbiterModel, error) {
	if n < 1 {
		return nil, fmt.Errorf("power: arbiter model needs >=1 master, got %d", n)
	}
	return &ArbiterModel{
		N:         n,
		Tech:      tech,
		CReq:      tech.CPD * (1 + float64(n)/2),
		CGrant:    tech.CPD + tech.CO,
		CHandover: tech.CPD * float64(n),
		CActive:   tech.CPD*11*float64(n) + tech.CO*6,
	}, nil
}

// Energy returns the dynamic energy of one arbiter cycle: hdReq request
// line toggles, hdGrant grant line toggles, whether a bus handover (grant
// change) occurred, and whether the FSM spent the cycle actively
// re-arbitrating.
func (m *ArbiterModel) Energy(hdReq, hdGrant int, handover, arbitrating bool) float64 {
	c := m.CReq*float64(hdReq) + m.CGrant*float64(hdGrant)
	if handover {
		c += m.CHandover
	}
	if arbitrating {
		c += m.CActive
	}
	return m.Tech.EnergyPerCap(c)
}
