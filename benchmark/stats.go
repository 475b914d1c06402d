package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for no samples. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLevels are the percentiles a tail latency may be reported at, from
// the least to the most extreme.
var tailLevels = []float64{0.5, 0.9, 0.99, 0.999}

// tailLevel returns the most extreme percentile in tailLevels that still
// leaves at least 10 of n samples strictly beyond it, so a reported tail
// always rests on ten or more observations; ok is false when n is too
// small for even the median to qualify.
func tailLevel(n int) (q float64, ok bool) {
	for i := len(tailLevels) - 1; i >= 0; i-- {
		beyond := n - int(math.Ceil(tailLevels[i]*float64(n)))
		if beyond >= 10 {
			return tailLevels[i], true
		}
	}
	return 0, false
}

// throughput is the headline rate of a batch workload: the simulated
// cycles of one batch over the median batch wall time, so one slow batch
// (a neighbour's burst on a shared host) moves the tail, not the figure.
func throughput(cyclesPerBatch uint64, batchWalls []time.Duration) float64 {
	s := make([]float64, len(batchWalls))
	for i, d := range batchWalls {
		s[i] = d.Seconds()
	}
	m := median(s)
	if m <= 0 {
		return 0
	}
	return float64(cyclesPerBatch) / m
}

// deriveSeed hashes a path of labels into a non-negative traffic seed.
// Operation k of a workload draws its seeds from deriveSeed(seed,
// workload, k, ...), so no two operations — of one run or of two runs
// with different seeds — share traffic, while two runs with one seed
// share all of it.
func deriveSeed(parts ...any) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		switch v := p.(type) {
		case string:
			h.Write([]byte(v))
		case int:
			h.Write([]byte(strconv.Itoa(v)))
		case int64:
			h.Write([]byte(strconv.FormatInt(v, 10)))
		default:
			panic("deriveSeed: unsupported part type")
		}
		h.Write([]byte{0})
	}
	return int64(h.Sum64() >> 1)
}

// spreadLine formats the quartiles and outer deciles of xs for the
// diagnostics on standard error.
func spreadLine(xs []float64) string {
	return fmt.Sprintf("n=%d p10 %.4g p25 %.4g p50 %.4g p75 %.4g p90 %.4g",
		len(xs), quantile(xs, 0.1), quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75), quantile(xs, 0.9))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spinIterations sizes the host-noise probe to roughly 100 ms on an idle
// core of the reference host.
const spinIterations = 60_000_000

// spinSink keeps the probe loop from being optimized away.
var spinSink uint64

// spin times a fixed integer loop. The same work on the same binary
// should always take the same time, so a slow reading flags a busy host
// (another tenant, frequency scaling) rather than a slow program.
func spin() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < spinIterations; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink += x
	return time.Since(start)
}
