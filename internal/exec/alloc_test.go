package exec_test

import (
	"context"
	"runtime"
	"testing"

	"ahbpower/internal/core"
	"ahbpower/internal/exec"
)

// TestSteadyStateCycleAllocs pins the zero-allocation cycle: once a paper
// system is warm, simulating more cycles allocates nothing, on either
// backend, with or without the global analyzer. Every word of each
// slave's regions is written up front so the memory maps never grow.
func TestSteadyStateCycleAllocs(t *testing.T) {
	const warm, window = 5_000, 1_000
	for _, tc := range []struct {
		name     string
		compiled bool
		analyzer bool
	}{
		{"event/bare", false, false},
		{"event/global", false, true},
		{"compiled/bare", true, false},
		{"compiled/global", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := core.NewSystem(core.PaperSystem())
			if err != nil {
				t.Fatal(err)
			}
			// Traffic for the warm-up plus AllocsPerRun's extra first call.
			if err := sys.LoadPaperWorkload(warm + 12*window); err != nil {
				t.Fatal(err)
			}
			for i, s := range sys.Topo.Slaves {
				for _, r := range s.Regions {
					for a := uint64(r.Start); a < r.End(); a += 4 {
						sys.Slaves[i].Poke(uint32(a), 0)
					}
				}
			}
			if tc.analyzer {
				if _, err := core.Attach(sys, core.AnalyzerConfig{Style: core.StyleGlobal}); err != nil {
					t.Fatal(err)
				}
			}
			// The compiled backend builds a stepper per Run call, so step
			// through one directly.
			step := func(n uint64) error { return sys.K.RunCycles(sys.Bus.Clk, n) }
			if tc.compiled {
				flat, err := sys.Bus.NewFlat()
				if err != nil {
					t.Fatal(err)
				}
				step = flat.RunCycles
			}
			ctx := context.Background()
			if err := sys.RunContextStepped(ctx, warm, step); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := sys.RunContextStepped(ctx, window, step); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%v allocations per %d warm cycles, want 0", allocs, window)
			}
			for i, m := range sys.Masters {
				if m.Done() {
					t.Errorf("master %d ran out of traffic inside the measured window", i)
				}
			}
		})
	}
}

// TestCycleAccurateAllocsFlat pins that a whole cycle-accurate run, from
// NewSystem to the end of Run, allocates no more for a 100× longer
// horizon: the masters draw their traffic from cursors that reuse their
// buffers, and the slaves' memory maps stop growing once every word of
// the paper's regions has been written.
func TestCycleAccurateAllocsFlat(t *testing.T) {
	const short, long, slack = 20_000, 2_000_000, 16
	for _, be := range []exec.Backend{exec.Event(), exec.Compiled()} {
		t.Run(be.Name(), func(t *testing.T) {
			allocs := func(cycles uint64) uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				sys, err := core.NewSystem(core.PaperSystem())
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.LoadPaperWorkload(cycles); err != nil {
					t.Fatal(err)
				}
				if _, err := core.Attach(sys, core.AnalyzerConfig{Style: core.StyleGlobal}); err != nil {
					t.Fatal(err)
				}
				if err := be.Run(context.Background(), sys, cycles); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs
			}
			s, l := allocs(short), allocs(long)
			t.Logf("%d allocs at %d cycles, %d at %d", s, uint64(short), l, uint64(long))
			if l > s+slack {
				t.Errorf("%d allocations over %d cycles, %d over %d: want at most %d more", l, uint64(long), s, uint64(short), slack)
			}
		})
	}
}
