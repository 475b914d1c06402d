// Multimaster: the paper's full testbench scenario with custom traffic —
// two masters with different data patterns contending for three slaves —
// demonstrating per-block power attribution (Fig. 6), power-versus-time
// traces (Figs. 3-5) and the protocol monitor, run through the batch
// engine as a single scenario.
package main

import (
	"context"
	"fmt"
	"log"

	"ahbpower"
)

func main() {
	// Master 0 moves random (high-activity) data; master 1 streams
	// counter (low-activity) data. The energy difference between them is
	// exactly what the Hamming-distance macromodels capture.
	cfg0 := ahbpower.PaperWorkload(0, 90)
	cfg1 := ahbpower.PaperWorkload(1, 90)
	cfg1.Pattern = 2 // counter pattern

	// 100 ns power windows, as in Figs. 3-5, split per sub-block.
	tr, err := ahbpower.NewTrace(ahbpower.TraceConfig{Window: 100e-9, PerBlock: true})
	if err != nil {
		log.Fatal(err)
	}

	const cycles = 8000
	res := ahbpower.RunScenario(context.Background(), ahbpower.Scenario{
		Name:      "multimaster",
		System:    ahbpower.PaperSystem(),
		Workloads: []ahbpower.WorkloadConfig{cfg0, cfg1},
		Analyzer:  ahbpower.AnalyzerConfig{Style: ahbpower.StyleGlobal, Trace: tr},
		Cycles:    cycles,
	})
	if res.Err != nil {
		log.Fatal(res.Err)
	}
	if len(res.Violations) > 0 {
		log.Fatalf("protocol violations: %v", res.Violations[0])
	}

	r := res.Report
	fmt.Println("== Instruction energies ==")
	fmt.Print(r.FormatTable())
	fmt.Println("\n== Sub-block contribution (Fig. 6) ==")
	fmt.Print(r.FormatBreakdown())
	fmt.Println("\n== Power traces ==")
	total := tr.PowerSeries()
	fmt.Printf("total: mean %s, peak %s over %d windows\n",
		fmtPower(total.MeanY()), fmtPower(total.MaxY()), total.Len())
	fmt.Printf("arbiter: mean %s (Fig. 4)  M2S mux: mean %s (Fig. 5)\n",
		fmtPower(tr.BlockPowerSeries(ahbpower.BlockARB).MeanY()),
		fmtPower(tr.BlockPowerSeries(ahbpower.BlockM2S).MeanY()))
	fmt.Println()
	fmt.Println(r.FormatSummary())
	fmt.Printf("\nbus events: %d transfers, %d handovers, %d wait cycles\n",
		res.Counts["nonseq"]+res.Counts["seq"],
		res.Counts["handover"], res.Counts["wait"])
}

func fmtPower(w float64) string {
	switch {
	case w >= 1e-3:
		return fmt.Sprintf("%.2f mW", w*1e3)
	default:
		return fmt.Sprintf("%.1f uW", w*1e6)
	}
}
