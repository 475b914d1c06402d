package tlm

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ahbpower/internal/core"
	"ahbpower/internal/power"
	"ahbpower/internal/workload"
)

// TestCursorPrefixMeasuresLikeFullScripts pins the calibration prefix on
// every golden family: measured on masters that draw their traffic from
// cursors as they reach it, it equals, Float64bits for Float64bits per
// block, the prefix measured on masters holding the full Generate
// scripts through Enqueue.
func TestCursorPrefixMeasuresLikeFullScripts(t *testing.T) {
	for _, f := range goldenFamilies() {
		p, err := Prepare(f.spec)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		prefix := CalibrationPrefix(f.spec.Cycles)
		sys, err := core.NewSystemTopo(p.ct)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		for i, cfg := range p.cfgs {
			full, err := workload.Generate(cfg)
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			sys.Masters[i].Enqueue(full...)
		}
		want, wantBackend, err := measurePrefix(context.Background(), sys, p.spec.Analyzer, prefix)
		if err != nil {
			t.Fatalf("%s: full scripts: %v", f.name, err)
		}
		got, gotBackend, err := runPrefix(context.Background(), p.ct, p.spec.Analyzer, p.cfgs, prefix)
		if err != nil {
			t.Fatalf("%s: cursors: %v", f.name, err)
		}
		if gotBackend != wantBackend {
			t.Errorf("%s: prefix ran on %s, want %s", f.name, gotBackend, wantBackend)
		}
		for _, b := range power.Blocks() {
			if math.Float64bits(got.block[b]) != math.Float64bits(want.block[b]) {
				t.Errorf("%s: %s prefix energy %v, full scripts measure %v", f.name, b, got.block[b], want.block[b])
			}
		}
		if math.Float64bits(got.total) != math.Float64bits(want.total) {
			t.Errorf("%s: prefix total %v, full scripts measure %v", f.name, got.total, want.total)
		}
	}
}

// TestPreparedConcurrentEstimates pins that a Prepared holds no traffic
// or cursor state: estimates running concurrently on one Prepared each
// equal a solo estimate bit for bit.
func TestPreparedConcurrentEstimates(t *testing.T) {
	p, err := Prepare(Spec{Name: "shared", Topo: paperTopo(t, "rr"),
		Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal}, Cycles: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := p.Estimate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]*Outcome, 4)
	errs := make([]error, len(outs))
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = p.Estimate(context.Background())
		}(i)
	}
	wg.Wait()
	for i, out := range outs {
		if errs[i] != nil {
			t.Fatalf("estimate %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(out, solo) {
			t.Errorf("estimate %d differs from the solo estimate: total %v vs %v", i,
				out.Report.TotalEnergy, solo.Report.TotalEnergy)
		}
	}
}

// TestEstimateAllocsFlat gates the streaming walk: an estimate holds
// O(1) traffic, so its allocation count must not grow with the horizon
// beyond the few cursor-buffer regrowths a longer run's larger sequences
// cause. Allocation counts are deterministic, so the bound is exact.
func TestEstimateAllocsFlat(t *testing.T) {
	allocs := func(cycles uint64) float64 {
		p, err := Prepare(Spec{
			Name:     "flat",
			Topo:     paperTopo(t, ""),
			Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal},
			Cycles:   cycles,
		})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(2, func() {
			if _, err := p.Estimate(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(200_000), allocs(2_000_000)
	t.Logf("allocations per estimate: %.0f at 200k cycles, %.0f at 2M cycles", short, long)
	if long > short+16 {
		t.Errorf("a 2M-cycle estimate made %.0f allocations, a 200k-cycle one %.0f: traffic is held per cycle", long, short)
	}
}

// countdownCtx is a live context whose Err turns context.Canceled after
// limit calls, so cancellation lands at a fixed point of an estimate
// without any timer.
type countdownCtx struct {
	context.Context
	limit, calls int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestWalkHonoursCancellation cancels an estimate after its calibration
// prefix: the context refuses every check past those a 200k-cycle
// estimate makes (its prefix is already the 8,192-cycle maximum). A
// 4M-cycle estimate must then stop in the walk with the context's error
// at its first refused check, instead of walking the whole horizon.
func TestWalkHonoursCancellation(t *testing.T) {
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := Spec{Name: "cancel", Topo: paperTopo(t, ""), Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal}}

	spec.Cycles = 200_000
	probe := &countdownCtx{Context: live, limit: math.MaxInt}
	if _, err := Estimate(probe, spec); err != nil {
		t.Fatalf("uncancelled estimate: %v", err)
	}

	spec.Cycles = 4_000_000
	ctx := &countdownCtx{Context: live, limit: probe.calls}
	out, err := Estimate(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("estimate cancelled after %d context checks: got %v (outcome %v), want context.Canceled",
			probe.calls, err, out != nil)
	}
	if !strings.Contains(err.Error(), "walk") {
		t.Errorf("cancellation surfaced outside the walk: %v", err)
	}
	if ctx.calls != probe.calls+1 {
		t.Errorf("the walk checked its context %d more times after cancellation", ctx.calls-probe.calls-1)
	}
}
