package exec_test

import (
	"context"
	"testing"

	"ahbpower/internal/core"
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
