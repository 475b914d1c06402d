package tlm

import (
	"sort"

	"ahbpower/internal/core"
	"ahbpower/internal/power"
	"ahbpower/internal/topo"
	"ahbpower/internal/workload"
)

// expecter holds the analytic expected energy of every power-FSM
// instruction, decomposed per sub-block. The expectations come from the
// same macromodel coefficients the cycle-accurate analyzer evaluates,
// applied to the workload's *expected* Hamming distances instead of the
// per-cycle observed ones: the macromodels are linear in the HD terms, so
// E[energy] = energy(E[hd]) holds exactly for each block.
type expecter struct {
	comp [power.NumStates * power.NumStates][power.NumBlocks]float64
}

// patternHD is the expected write-data Hamming distance per beat for a
// data pattern on a w-bit bus (see workload.Pattern docs: random averages
// w/2 flips, the correlated patterns average ~2).
func patternHD(p workload.Pattern, w int) float64 {
	if p == workload.PatternRandom {
		return float64(w) / 2
	}
	return 2
}

// Expected Hamming distances of the control-path signals during
// transfers: locality-windowed addresses mostly increment (hdAddr), the
// transfer-type/control bundle toggles a bit or two per cycle (hdCtrl),
// and a handover flips one select line off and one on (hdSel).
const (
	expHDAddr = 2
	expHDCtrl = 1
	expHDSel  = 2
)

// newExpecter derives the instruction-energy table from the analyzer
// configuration (characterized Models or the structural defaults,
// resolved by power.ResolveModels exactly as core.Attach resolves them)
// and the workload mix.
func newExpecter(ct *topo.Topology, az core.AnalyzerConfig, cfgs []workload.Config) (*expecter, error) {
	// len(ct.Masters) mirrors bus construction: default master included.
	models, err := power.ResolveModels(az.Models, len(ct.Masters), len(ct.Slaves), ct.DataWidth, az.Tech)
	if err != nil {
		return nil, err
	}
	hdData := 0.0
	if len(cfgs) > 0 {
		for _, c := range cfgs {
			hdData += patternHD(c.Pattern, ct.DataWidth)
		}
		hdData /= float64(len(cfgs))
	}

	// The macromodels take integer HDs; round the expected values once.
	hdW := int(hdData + 0.5) // write-data flips per write beat
	dec, m2s, s2m, arb := models.Dec, models.M2S, models.S2M, models.Arb
	m2sClk, s2mClk := m2s.ClockEnergy(), s2m.ClockEnergy()

	e := &expecter{}
	isXfer := func(s power.State) bool { return s == power.Read || s == power.Write }
	for f := 0; f < power.NumStates; f++ {
		for t := 0; t < power.NumStates; t++ {
			from, to := power.State(f), power.State(t)
			var c [power.NumBlocks]float64
			c[power.BlockM2S] = m2sClk
			c[power.BlockS2M] = s2mClk
			switch {
			case to == power.Write:
				in := expHDAddr + expHDCtrl + hdW
				c[power.BlockDEC] = dec.Energy(expHDAddr)
				c[power.BlockM2S] += m2s.Energy(in, 0, in)
				c[power.BlockS2M] += s2m.Energy(1, 0, 1)
				c[power.BlockARB] = arbXferEnergy(arb, from)
			case to == power.Read:
				in := expHDAddr + expHDCtrl
				out := hdW + 1 // read data comes back with the written pattern
				c[power.BlockDEC] = dec.Energy(expHDAddr)
				c[power.BlockM2S] += m2s.Energy(in, 0, in)
				c[power.BlockS2M] += s2m.Energy(out, 0, out)
				c[power.BlockARB] = arbXferEnergy(arb, from)
			case to == power.IdleHO && isXfer(from):
				// Ownership is being released or handed over: the control
				// path goes idle, the mux selects and the arbiter's
				// request/grant lines switch.
				c[power.BlockM2S] += m2s.Energy(expHDCtrl, expHDSel, expHDCtrl)
				c[power.BlockARB] = arb.Energy(expHDSel, expHDSel, true, true)
			case to == power.IdleHO:
				c[power.BlockARB] = arb.Energy(0, 0, false, true)
			}
			e.comp[f*power.NumStates+t] = c
		}
	}
	return e, nil
}

// arbXferEnergy is the expected arbiter energy of a transfer cycle: quiet
// while the same master keeps the bus, one request/grant toggle when the
// transfer (re)starts from an idle state.
func arbXferEnergy(arb *power.ArbiterModel, from power.State) float64 {
	if from == power.Read || from == power.Write {
		return arb.Energy(0, 0, false, false)
	}
	return arb.Energy(1, 1, false, false)
}

// calibration rescales the analytic expectations with per-block factors
// measured on the cycle-accurate prefix: factor_b = measured_b /
// walk-estimated_b over the same window. Any stationary bias in the
// expectations — approximate HDs, unmodeled glitching styles, arbitration
// effects the walk does not replay — divides out; what remains is the mix
// drift between the prefix and the rest of the run, which tools/tlmcheck
// measures against the documented budget.
type calibration struct {
	exp     *expecter
	factor  [power.NumBlocks]float64
	overall float64
}

func calibrate(exp *expecter, w *walkResult, m measuredPrefix) *calibration {
	var walkPre [power.NumBlocks]float64
	for idx, n := range w.pre {
		if n == 0 {
			continue
		}
		for b := 0; b < int(power.NumBlocks); b++ {
			walkPre[b] += float64(n) * exp.comp[idx][b]
		}
	}
	walkTotal := 0.0
	for _, e := range walkPre {
		walkTotal += e
	}
	cal := &calibration{exp: exp, overall: 1}
	if walkTotal > 0 && m.total > 0 {
		cal.overall = m.total / walkTotal
	}
	// The factors are busy-region ratios: any post-script tail inside the
	// prefix is subtracted from both sides first. Dead-tail idles cost
	// clock plus idle arbitration and nothing else — the analytic
	// expectation is already exact for them — while busy-region gap idles
	// carry request/grant switching that makes them severalfold more
	// expensive. Folding the tail into the ratio would let a busy prefix
	// inflate a dominant tail (or a tail-heavy prefix deflate busy
	// traffic); excluding it keeps the degenerate prefix==horizon case
	// exact, because the subtracted term is added back verbatim in report.
	tc := exp.comp[int(power.IdleHO)*power.NumStates+int(power.IdleHO)]
	for b := 0; b < int(power.NumBlocks); b++ {
		tail := float64(w.tailPre) * tc[b]
		meas, walk := m.block[b]-tail, walkPre[b]-tail
		if walk > 0 && meas > 0 {
			cal.factor[b] = meas / walk
		} else {
			cal.factor[b] = cal.overall
		}
	}
	return cal
}

// report assembles the estimated Report/Stats from the full-horizon
// instruction counts and the calibrated per-instruction energies, through
// the same core.BuildReport constructor the exact paths use. When the
// horizon equals the calibration prefix the sums telescope back to the
// measured per-block energies and the estimate is exact.
func (cal *calibration) report(ct *topo.Topology, az core.AnalyzerConfig,
	w *walkResult, cycles uint64) (*core.Report, []power.InstructionStat) {
	var bd power.Breakdown
	sts := make([]power.InstructionStat, 0, 8)
	total := 0.0
	idxHO := int(power.IdleHO)*power.NumStates + int(power.IdleHO)
	for idx, n := range w.full {
		if n == 0 {
			continue
		}
		// Dead-tail self-loop cycles are priced at the uncalibrated
		// analytic expectation; everything else gets the busy-region
		// calibration factor (see calibrate).
		var tail uint64
		if idx == idxHO {
			if tail = w.tailFull; tail > n {
				tail = n
			}
		}
		busy := n - tail
		energy := 0.0
		for b := 0; b < int(power.NumBlocks); b++ {
			c := cal.exp.comp[idx][b]
			e := float64(busy)*cal.factor[b]*c + float64(tail)*c
			energy += e
			bd.Add(power.Block(b), e)
		}
		in := power.Instruction{
			From: power.State(idx / power.NumStates),
			To:   power.State(idx % power.NumStates),
		}
		sts = append(sts, power.InstructionStat{
			Instruction: in,
			Count:       n,
			Energy:      energy,
		})
		total += energy
	}
	sort.Slice(sts, func(i, j int) bool {
		if sts[i].Energy != sts[j].Energy {
			return sts[i].Energy > sts[j].Energy
		}
		return sts[i].Instruction.String() < sts[j].Instruction.String()
	})
	rep := core.BuildReport(az.Style, ct.ClockPeriod(), cycles, total, sts, &bd)
	return rep, sts
}
