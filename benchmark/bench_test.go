package main

import (
	"math"
	"path/filepath"
	"testing"
	"time"
)

func TestThroughputUsesMedianBatch(t *testing.T) {
	walls := []time.Duration{
		500 * time.Millisecond,
		400 * time.Millisecond,
		3 * time.Second, // one batch slowed by a neighbour: must not move the figure
		450 * time.Millisecond,
		420 * time.Millisecond,
	}
	if got, want := throughput(1_000_000, walls), 1_000_000/0.45; math.Abs(got-want) > 1e-6 {
		t.Fatalf("throughput = %v, want %v (cycles over the median batch)", got, want)
	}
	if got := throughput(1_000_000, nil); got != 0 {
		t.Fatalf("throughput of no batches = %v, want 0", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 4 {
		t.Fatal("quantile sorted its input in place")
	}
}

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 19, ok: false},
		{n: 20, want: 0.5, ok: true},
		{n: 99, want: 0.5, ok: true},
		{n: 100, want: 0.9, ok: true},
		{n: 999, want: 0.9, ok: true},
		{n: 1000, want: 0.99, ok: true},
		{n: 10000, want: 0.999, ok: true},
	} {
		q, ok := tailLevel(tc.n)
		if ok != tc.ok || q != tc.want {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", tc.n, q, ok, tc.want, tc.ok)
			continue
		}
		if ok {
			if beyond := tc.n - int(math.Ceil(q*float64(tc.n))); beyond < 10 {
				t.Errorf("tailLevel(%d) = %v leaves %d samples beyond it", tc.n, q, beyond)
			}
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 30, End: 50}}, 70},
		{"overlapping workers", []span{{Start: 10, End: 60}, {Start: 40, End: 80}, {Start: 45, End: 55}}, 30},
		{"clipped to the parent", []span{{Start: -20, End: 10}, {Start: 90, End: 130}}, 80},
		{"fully covered", []span{{Start: 0, End: 70}, {Start: 50, End: 100}}, 0},
		{"touching", []span{{Start: 10, End: 30}, {Start: 30, End: 40}}, 70},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRecorderSelfTimes(t *testing.T) {
	rec := newRecorder()
	at := func(ns int64) time.Time { return rec.epoch.Add(time.Duration(ns)) }
	root := rec.add(0, 1, "request", at(0), at(1000))
	rec.add(root, 1, "runner", at(200), at(900))
	rec.add(root, 1, "runner", at(800), at(950))
	got := rec.selfTimes("request")
	if len(got) != 1 || got[0] != (250*time.Nanosecond).Seconds() {
		t.Fatalf("selfTimes = %v, want [250ns]", got)
	}
}

func TestDeriveSeedDistinctAcrossOperationsStableAcrossRuns(t *testing.T) {
	seen := map[int64]string{}
	for _, w := range []string{"sweep", "seeds", "estimate", "serve"} {
		for k := 0; k < 1000; k++ {
			s := deriveSeed(int64(7), w, k)
			if s < 0 {
				t.Fatalf("deriveSeed(7, %s, %d) = %d, want non-negative", w, k, s)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("deriveSeed(7, %s, %d) repeats the seed of %s", w, k, prev)
			}
			seen[s] = w
			if again := deriveSeed(int64(7), w, k); again != s {
				t.Fatalf("deriveSeed is not deterministic: %d then %d", s, again)
			}
		}
	}
	if deriveSeed(int64(7), "sweep", 0) == deriveSeed(int64(8), "sweep", 0) {
		t.Fatal("different run seeds derive the same operation seed")
	}
	// The path is delimited: ("a1", 2) and ("a", 12) are different paths.
	if deriveSeed("a1", 2) == deriveSeed("a", 12) {
		t.Fatal("seed paths are not delimited")
	}
}

func TestSelectMetricsWantsEveryListedMetricInItsUnit(t *testing.T) {
	listed := []manifestMetric{{"a", "ms"}, {"b", "s"}}
	r := &run{workload: "w"}
	got := selectMetrics(r, map[string]metric{"a": {1, "ms"}, "b": {2, "s"}, "extra": {3, "x"}}, listed)
	if len(r.problems) != 0 || len(got) != 2 || got["a"].Value != 1 || got["b"].Value != 2 {
		t.Fatalf("selectMetrics = %v with problems %q, want a and b only", got, r.problems)
	}
	r = &run{workload: "w"}
	got = selectMetrics(r, map[string]metric{"a": {1, "s"}}, listed)
	if len(got) != 0 || len(r.problems) != 2 {
		t.Fatalf("selectMetrics = %v with problems %q, want none and two problems (unit of a, missing b)", got, r.problems)
	}
}

func TestManifestListsMetrics(t *testing.T) {
	m, err := readManifest(filepath.Join("..", manifestPath))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range append(m.EndToEnd, m.PerLayer...) {
		if l.Name == "" || l.Unit == "" {
			t.Errorf("manifest metric %+v has no name or no unit", l)
		}
	}
}
