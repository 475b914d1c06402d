package exec_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/exec"
	"ahbpower/internal/fault"
	"ahbpower/internal/sim"
	"ahbpower/internal/workload"
)

// FuzzBackendEquivalence derives a small random topology, clock period,
// DPM threshold, workload and fault plan from the fuzz input and checks
// that the event and compiled backends produce identical reports and DPM
// estimates. Any divergence is a scheduling bug in the flat stepper.
func FuzzBackendEquivalence(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(0), uint8(0), uint8(0), int64(1), uint8(0))
	f.Add(uint8(1), uint8(1), uint8(2), uint8(1), uint8(1), int64(42), uint8(3))
	f.Add(uint8(3), uint8(4), uint8(1), uint8(2), uint8(2), int64(-7), uint8(255))
	f.Add(uint8(6), uint8(2), uint8(1), uint8(0), uint8(1), int64(5), uint8(0))
	f.Add(uint8(33), uint8(3), uint8(0), uint8(2), uint8(0), int64(9), uint8(2))
	f.Add(uint8(62), uint8(1), uint8(3), uint8(1), uint8(2), int64(-3), uint8(5))
	f.Fuzz(func(t *testing.T, nm, ns, waits, policy, pattern uint8, seed int64, faultSel uint8) {
		sys := core.SystemConfig{
			NumActiveMasters:  1 + int(nm%3),
			WithDefaultMaster: nm%2 == 0,
			NumSlaves:         1 + int(ns%4),
			SlaveWaits:        int(waits % 4),
			ClockPeriod:       10 * sim.Nanosecond,
			DataWidth:         32,
			Policy:            ahb.ArbPolicy(policy % 3),
		}
		// nm's upper bits pick an odd period (bit 2) and a DPM threshold
		// (bits 3-7, 0 = no estimator).
		if nm&4 != 0 {
			sys.ClockPeriod += sim.Picosecond
		}
		an := core.AnalyzerConfig{Style: core.StyleGlobal}
		if pattern%2 == 1 {
			an.Style = core.StyleLocal
		}
		if th := int(nm >> 3); th > 0 {
			an.DPM = &core.DPMConfig{IdleThreshold: th, WakeEnergy: 1e-12}
		}
		wl := workload.Config{
			Seed:         seed,
			NumSequences: 20,
			PairsMin:     1,
			PairsMax:     1 + int(pattern%5),
			IdleMax:      int(waits % 7),
			AddrSize:     uint32(sys.NumSlaves) * 0x1000,
			Pattern:      workload.Pattern(pattern % 3),
			BurstBeats:   4,
		}
		var plan *fault.Plan
		if faultSel != 0 {
			kinds := []fault.Kind{fault.KindError, fault.KindRetry, fault.KindSplit,
				fault.KindWaits, fault.KindAddrFlip, fault.KindDataFlip}
			k := kinds[int(faultSel)%len(kinds)]
			plan = &fault.Plan{Seed: seed ^ int64(faultSel), Rules: []fault.Rule{
				{Kind: k, Slave: -1, Master: -1, Prob: 0.05, Retries: 1, Waits: 2, Hold: 5, Mask: 0x11},
			}}
		}
		run := func(backend string) engine.Result {
			return engine.RunOne(context.Background(), engine.Scenario{
				Name:      "fuzz",
				System:    sys,
				Analyzer:  an,
				Workloads: []workload.Config{wl},
				Cycles:    600,
				Faults:    plan,
				Backend:   backend,
			})
		}
		ev := run(exec.NameEvent)
		cp := run(exec.NameCompiled)
		if (ev.Err == nil) != (cp.Err == nil) {
			t.Fatalf("error divergence: event=%v compiled=%v", ev.Err, cp.Err)
		}
		if ev.Err != nil {
			return // both rejected the configuration the same way
		}
		if cp.Backend != exec.NameCompiled {
			t.Fatalf("expected compiled execution, got %q (fallback %q)", cp.Backend, cp.BackendFallback)
		}
		if math.Float64bits(ev.Report.TotalEnergy) != math.Float64bits(cp.Report.TotalEnergy) {
			t.Fatalf("TotalEnergy: event=%g compiled=%g", ev.Report.TotalEnergy, cp.Report.TotalEnergy)
		}
		if !reflect.DeepEqual(ev.Report, cp.Report) {
			t.Fatalf("Report diverges:\nevent:    %+v\ncompiled: %+v", ev.Report, cp.Report)
		}
		if !reflect.DeepEqual(ev.DPM, cp.DPM) {
			t.Fatalf("DPM diverges:\nevent:    %+v\ncompiled: %+v", ev.DPM, cp.DPM)
		}
		if ev.Beats != cp.Beats || !reflect.DeepEqual(ev.Counts, cp.Counts) {
			t.Fatalf("beats/counts diverge: event=%d/%v compiled=%d/%v",
				ev.Beats, ev.Counts, cp.Beats, cp.Counts)
		}
	})
}
