package metrics

import (
	"fmt"
	"time"

	"ahbpower/internal/stats"
)

// RunMetrics are the engine-level performance figures of one scenario
// run: how long the simulation took and how fast it went. They are
// filled by the engine on every Result.
type RunMetrics struct {
	// Cycles is the number of bus cycles actually simulated.
	Cycles uint64
	// Build is the wall-clock time spent constructing the system,
	// generating workloads and attaching the analyzer.
	Build time.Duration
	// Run is the wall-clock time of the simulation loop alone.
	Run time.Duration
	// CyclesPerSec is the simulation throughput, bus cycles per
	// wall-clock second.
	CyclesPerSec float64
}

// NewRunMetrics computes the derived fields from the raw measurements.
func NewRunMetrics(cycles uint64, build, run time.Duration) RunMetrics {
	m := RunMetrics{Cycles: cycles, Build: build, Run: run}
	if s := run.Seconds(); s > 0 {
		m.CyclesPerSec = float64(cycles) / s
	}
	return m
}

// Format renders the metrics as one human-readable line.
func (m RunMetrics) Format() string {
	return fmt.Sprintf("cycles=%d build=%s run=%s throughput=%.3g cycles/s",
		m.Cycles, m.Build.Round(time.Microsecond), m.Run.Round(time.Microsecond),
		m.CyclesPerSec)
}

// BatchMetrics aggregates the run metrics of one scenario batch executed
// over a worker pool.
type BatchMetrics struct {
	// Scenarios is the batch size; Failed counts scenarios that ended
	// with an error (including cancellation).
	Scenarios, Failed int
	// Workers is the effective worker-pool size.
	Workers int
	// TotalCycles sums the bus cycles of every successful scenario.
	TotalCycles uint64
	// Wall is the batch's end-to-end wall-clock time.
	Wall time.Duration
	// Busy sums the per-scenario simulation-loop times: the total CPU
	// time the pool spent simulating.
	Busy time.Duration
	// Utilization is Busy/(Workers*Wall) in [0,1]: how much of the
	// pool's capacity the simulation loops used. Low values mean the
	// batch is dominated by construction, serialization or imbalance.
	Utilization float64
	// CyclesPerSec is the batch throughput, TotalCycles/Wall.
	CyclesPerSec float64
	// Latency summarizes the per-scenario simulation-loop times, in
	// seconds.
	Latency stats.Summary
}

// Aggregate folds per-scenario run metrics into batch metrics. failed is
// the number of scenarios not represented in runs; workers the pool
// size; wall the batch's end-to-end duration.
func Aggregate(runs []RunMetrics, failed, workers int, wall time.Duration) BatchMetrics {
	b := BatchMetrics{
		Scenarios: len(runs) + failed,
		Failed:    failed,
		Workers:   workers,
		Wall:      wall,
	}
	latencies := make([]float64, 0, len(runs))
	for _, m := range runs {
		b.TotalCycles += m.Cycles
		b.Busy += m.Run
		latencies = append(latencies, m.Run.Seconds())
	}
	b.Latency = stats.Summarize(latencies)
	if s := wall.Seconds(); s > 0 {
		b.CyclesPerSec = float64(b.TotalCycles) / s
		if workers > 0 {
			b.Utilization = b.Busy.Seconds() / (float64(workers) * s)
		}
	}
	return b
}

// Format renders the batch metrics as a short multi-line summary.
func (b BatchMetrics) Format() string {
	return fmt.Sprintf(
		"scenarios=%d failed=%d workers=%d wall=%s\n"+
			"cycles=%d throughput=%.3g cycles/s utilization=%.1f%%\n"+
			"latency min=%.3gs median=%.3gs max=%.3gs",
		b.Scenarios, b.Failed, b.Workers, b.Wall.Round(time.Millisecond),
		b.TotalCycles, b.CyclesPerSec, 100*b.Utilization,
		b.Latency.Min, b.Latency.Median, b.Latency.Max)
}
