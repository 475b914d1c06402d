package metrics

import "ahbpower/internal/stats"

// The wire types carry batch metrics across process boundaries (the
// serving daemon's JSON API). They flatten time.Duration into float
// seconds and tag every field, so the payload is self-describing and
// stable even if the in-memory structs evolve.

// SummaryWire is the JSON form of a stats.Summary.
type SummaryWire struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Median float64 `json:"median"`
	Total  float64 `json:"total"`
}

func summaryWire(s stats.Summary) SummaryWire {
	return SummaryWire{N: s.N, Min: s.Min, Max: s.Max, Mean: s.Mean,
		Stddev: s.Stddev, Median: s.Median, Total: s.Total}
}

// BatchMetricsWire is the JSON form of BatchMetrics.
type BatchMetricsWire struct {
	Scenarios      int         `json:"scenarios"`
	Failed         int         `json:"failed"`
	Workers        int         `json:"workers"`
	TotalCycles    uint64      `json:"total_cycles"`
	WallSeconds    float64     `json:"wall_s"`
	BusySeconds    float64     `json:"busy_s"`
	Utilization    float64     `json:"utilization"`
	CyclesPerSec   float64     `json:"cycles_per_s"`
	LatencySeconds SummaryWire `json:"latency_s"`
}

// Wire converts the batch metrics to their JSON form.
func (b BatchMetrics) Wire() BatchMetricsWire {
	return BatchMetricsWire{
		Scenarios:      b.Scenarios,
		Failed:         b.Failed,
		Workers:        b.Workers,
		TotalCycles:    b.TotalCycles,
		WallSeconds:    b.Wall.Seconds(),
		BusySeconds:    b.Busy.Seconds(),
		Utilization:    b.Utilization,
		CyclesPerSec:   b.CyclesPerSec,
		LatencySeconds: summaryWire(b.Latency),
	}
}
