package core

import (
	"fmt"

	"ahbpower/internal/power"
)

// DPMConfig enables the dynamic-power-management estimator — the run-time
// energy-optimization extension the paper's §4 anticipates ("unless it is
// necessary to develop a dynamic power management for a run-time energy
// optimization of the system"). The estimator is counterfactual: it does
// not change simulation behavior (the paper requires the power code
// "does not have to modify the system behavior"); instead it accounts the
// energy a clock-gating controller would have saved.
//
// Policy: after IdleThreshold consecutive idle (IDLE/IDLE_HO) cycles the
// datapath blocks (both multiplexers' registers and keepers) are gated;
// the arbiter stays awake to observe requests. Each wake-up costs
// WakeEnergy. Only the per-cycle clock-tree energy counts as saved:
// data-dependent switching observed during an idle window would still
// occur at wake-up, so crediting it would overstate savings.
type DPMConfig struct {
	IdleThreshold int
	WakeEnergy    float64 // joules per wake-up
}

// DPMEstimate is the accumulated what-if accounting.
type DPMEstimate struct {
	Config      DPMConfig
	GatedCycles uint64  // cycles the datapath would have spent gated
	Wakeups     uint64  // number of gating episodes that ended in a wake
	GrossSaved  float64 // datapath energy over gated cycles, joules
	WakeCost    float64 // total wake-up energy, joules
}

// NetSaved returns gross savings minus wake costs (may be negative for a
// too-eager policy).
func (d *DPMEstimate) NetSaved() float64 { return d.GrossSaved - d.WakeCost }

// SavingsPct returns the net savings as a percentage of total energy.
func (d *DPMEstimate) SavingsPct(total float64) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * d.NetSaved() / total
}

// String summarizes the estimate.
func (d *DPMEstimate) String() string {
	return fmt.Sprintf("dpm(threshold=%d): gated=%d cycles, wakeups=%d, gross=%s, wake=%s, net=%s",
		d.Config.IdleThreshold, d.GatedCycles, d.Wakeups,
		FormatEnergy(d.GrossSaved), FormatEnergy(d.WakeCost), FormatEnergy(d.NetSaved()))
}

// dpmState is the per-analyzer streak tracker, serialized as is into the
// analyzer snapshot. JSON round-trips the estimate's float64 energies
// exactly (shortest round-trip formatting).
type dpmState struct {
	Estimate DPMEstimate `json:"estimate"`
	Streak   int         `json:"streak"`
	Gated    bool        `json:"gated,omitempty"`
}

func newDPMState(cfg DPMConfig) *dpmState {
	if cfg.IdleThreshold < 1 {
		cfg.IdleThreshold = 1
	}
	return &dpmState{Estimate: DPMEstimate{Config: cfg}}
}

// observe accounts one cycle: the activity state and the datapath energy
// (decoder + both muxes) of that cycle.
func (d *dpmState) observe(state power.State, datapathEnergy float64) {
	idle := state == power.Idle || state == power.IdleHO
	if idle {
		d.Streak++
		if d.Streak > d.Estimate.Config.IdleThreshold {
			// Gated from the cycle after the threshold is crossed.
			d.Gated = true
			d.Estimate.GatedCycles++
			d.Estimate.GrossSaved += datapathEnergy
		}
		return
	}
	if d.Gated {
		d.Estimate.Wakeups++
		d.Estimate.WakeCost += d.Estimate.Config.WakeEnergy
	}
	d.Gated = false
	d.Streak = 0
}
