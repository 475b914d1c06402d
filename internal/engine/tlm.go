package engine

import (
	"context"
	"fmt"
	"time"

	"ahbpower/internal/metrics"
	"ahbpower/internal/tlm"
)

// Accuracy classes a Scenario can request. Unlike backend hints, the
// accuracy class changes what is computed, so it is part of the result
// identity (CanonicalKey).
const (
	// AccuracyCycle is the exact cycle-accurate simulation; "" means the
	// same thing (the default).
	AccuracyCycle = "cycle"
	// AccuracyTransaction is the calibrated transaction-level estimate
	// (internal/tlm): approximate by contract, an order of magnitude
	// faster.
	AccuracyTransaction = "transaction"
)

// ValidAccuracy reports whether a scenario accuracy value is known. The
// empty string is valid and means AccuracyCycle.
func ValidAccuracy(a string) bool {
	switch a {
	case "", AccuracyCycle, AccuracyTransaction:
		return true
	}
	return false
}

// NormalizeAccuracy folds the empty default onto AccuracyCycle, so the
// two spellings of the exact class compare (and hash) equal.
func NormalizeAccuracy(a string) string {
	if a == "" {
		return AccuracyCycle
	}
	return a
}

// estimate runs res.Scenario through the transaction-level estimator.
func estimate(ctx context.Context, res *Result) {
	sc := &res.Scenario
	start := time.Now()
	out, err := tlm.Estimate(ctx, tlm.Spec{
		Name:      sc.Name,
		Topo:      sc.Topology(),
		Analyzer:  sc.Analyzer,
		Workloads: sc.Workloads,
		Cycles:    sc.Cycles,
	})
	if err != nil {
		res.Err = fmt.Errorf("engine: scenario %q: %w", sc.Name, err)
		return
	}
	// Only the calibration prefix actually turned the kernel over; the
	// rest of the horizon was estimated, which is the whole point — the
	// throughput figure reflects estimated cycles per wall-clock second.
	res.Metrics = metrics.NewRunMetrics(out.Cycles, 0, 0, time.Since(start))
	res.Report = out.Report
	res.Stats = out.Stats
	res.Beats = out.Beats
	res.Counts = out.Counts
}
