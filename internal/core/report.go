package core

import (
	"fmt"
	"sort"
	"strings"

	"ahbpower/internal/power"
	"ahbpower/internal/sim"
)

// TableRow is one line of the paper's Table 1.
type TableRow struct {
	Instruction string
	Count       uint64
	AvgEnergy   float64 // joules per execution
	TotalEnergy float64 // joules
	Share       float64 // fraction of total simulation energy
}

// Report is the complete outcome of one analyzed simulation.
type Report struct {
	Style       Style
	Cycles      uint64
	SimSeconds  float64
	TotalEnergy float64 // joules
	AvgPower    float64 // watts

	Table []TableRow

	// Per-block energies and shares (Fig. 6).
	BlockEnergy map[string]float64
	BlockShare  map[string]float64

	// Energy class shares (the paper's §6 conclusion).
	DataTransferShare float64 // READ/WRITE <-> READ/WRITE instructions
	ArbitrationShare  float64 // instructions touching IDLE_HO
	IdleShare         float64 // everything else
}

// Report finalizes and returns the analysis results.
func (a *Analyzer) Report() *Report {
	a.FlushSamples()
	return BuildReport(a.cfg.Style, a.sys.Bus.Clk.Period(), a.fsm.Cycles(), a.fsm.TotalEnergy(),
		a.fsm.Stats(), &a.bd)
}

// BuildReport assembles a Report from finalized accumulator state: the
// instruction-FSM stats and the block breakdown. It is the single Report
// constructor shared by the analyzer and by the transaction-level
// estimator (which keeps its own FSM/breakdown accumulators but must
// produce structurally identical reports).
func BuildReport(style Style, period sim.Time, cycles uint64, totalEnergy float64,
	sts []power.InstructionStat, bd *power.Breakdown) *Report {
	r := &Report{
		Style:       style,
		Cycles:      cycles,
		TotalEnergy: totalEnergy,
		BlockEnergy: map[string]float64{},
		BlockShare:  map[string]float64{},
	}
	r.SimSeconds = float64(r.Cycles) * period.Seconds()
	if r.SimSeconds > 0 {
		r.AvgPower = r.TotalEnergy / r.SimSeconds
	}
	total := r.TotalEnergy
	for _, st := range sts {
		row := TableRow{
			Instruction: st.Instruction.String(),
			Count:       st.Count,
			AvgEnergy:   st.AverageEnergy(),
			TotalEnergy: st.Energy,
		}
		if total > 0 {
			row.Share = st.Energy / total
		}
		r.Table = append(r.Table, row)
		from, to := st.Instruction.From, st.Instruction.To
		isXfer := func(s power.State) bool { return s == power.Read || s == power.Write }
		switch {
		case from == power.IdleHO || to == power.IdleHO:
			r.ArbitrationShare += row.Share
		case isXfer(from) && isXfer(to):
			r.DataTransferShare += row.Share
		default:
			r.IdleShare += row.Share
		}
	}
	for _, b := range power.Blocks() {
		r.BlockEnergy[b.String()] = bd.Energy(b)
		r.BlockShare[b.String()] = bd.Share(b)
	}
	return r
}

// FormatTable renders the report's instruction table in the layout of the
// paper's Table 1.
func (r *Report) FormatTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %10s %14s %14s %8s\n",
		"Instruction", "Count", "Avg energy", "Total energy", "%")
	for _, row := range r.Table {
		fmt.Fprintf(&b, "%-18s %10d %14s %14s %7.2f%%\n",
			row.Instruction, row.Count,
			FormatEnergy(row.AvgEnergy), FormatEnergy(row.TotalEnergy),
			100*row.Share)
	}
	fmt.Fprintf(&b, "%-18s %10d %14s %14s %7.2f%%\n",
		"Total", r.Cycles, "", FormatEnergy(r.TotalEnergy), 100.0)
	return b.String()
}

// FormatBreakdown renders the Fig. 6 sub-block contribution summary.
func (r *Report) FormatBreakdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %14s %8s\n", "Block", "Energy", "%")
	keys := make([]string, 0, len(r.BlockEnergy))
	for k := range r.BlockEnergy {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return r.BlockEnergy[keys[i]] > r.BlockEnergy[keys[j]] })
	for _, k := range keys {
		fmt.Fprintf(&b, "%-6s %14s %7.2f%%\n", k, FormatEnergy(r.BlockEnergy[k]), 100*r.BlockShare[k])
	}
	return b.String()
}

// FormatSummary renders the headline numbers.
func (r *Report) FormatSummary() string {
	return fmt.Sprintf(
		"style=%s cycles=%d sim=%.3gs energy=%s avg-power=%s\n"+
			"data-transfer=%.2f%% arbitration=%.2f%% idle=%.2f%%",
		r.Style, r.Cycles, r.SimSeconds, FormatEnergy(r.TotalEnergy), FormatPower(r.AvgPower),
		100*r.DataTransferShare, 100*r.ArbitrationShare, 100*r.IdleShare)
}

// FormatEnergy renders joules with an engineering prefix.
func FormatEnergy(j float64) string {
	return engFormat(j, "J")
}

// FormatPower renders watts with an engineering prefix.
func FormatPower(w float64) string {
	return engFormat(w, "W")
}

func engFormat(v float64, unit string) string {
	abs := v
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs == 0:
		return "0 " + unit
	case abs >= 1:
		return fmt.Sprintf("%.3g %s", v, unit)
	case abs >= 1e-3:
		return fmt.Sprintf("%.3g m%s", v*1e3, unit)
	case abs >= 1e-6:
		return fmt.Sprintf("%.3g u%s", v*1e6, unit)
	case abs >= 1e-9:
		return fmt.Sprintf("%.3g n%s", v*1e9, unit)
	case abs >= 1e-12:
		return fmt.Sprintf("%.3g p%s", v*1e12, unit)
	default:
		return fmt.Sprintf("%.3g f%s", v*1e15, unit)
	}
}
