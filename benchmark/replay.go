package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/exec"
	"ahbpower/internal/lane"
	"ahbpower/internal/tlm"
	"ahbpower/internal/workload"
)

// The replays re-execute a sample of a traced operation's scenarios one
// layer call at a time, with a span around each call, because the engine
// runs the same calls inside one opaque Runner.Run. Every replay also
// checks that it reproduced the operation's result bit for bit.
//
// Every workload replays workload generation and a cycle-accurate run on
// the compiled and event backends, so the per-layer figures of those
// layers exist for all of them. The path.* figures are the cost of the
// path the workload itself runs: the compiled backend (sweep), the lane
// pack (seeds), the transaction-level estimator (estimate) or the event
// backend (serve).

// addPath records the replayed cost of the workload's own path: building
// its executable form, and running it per simulated cycle.
func addPath(lt *layerTotals, build, run time.Duration, cycles uint64) {
	lt.add("path.build_ms", "ms", ms(build))
	lt.add("path.run_ns_per_cycle", "ns/cycle", float64(run.Nanoseconds())/float64(cycles))
}

// replaySweep replays two grid points per operation on the compiled
// backend the sweep runs, on the event reference, and bare.
func replaySweep(r *run, lt *layerTotals, op int, scs []engine.Scenario, res []engine.Result) {
	for _, i := range []int{op % len(scs), (op + len(scs)/2) % len(scs)} {
		parent := r.rec.begin(0, op, "replay", time.Now())
		replayGenerate(r, lt, parent, op, &scs[i])
		if build, run, ok := replayCycle(r, lt, parent, op, &res[i], exec.Compiled(), exec.Event()); ok {
			addPath(lt, build, run, scs[i].Cycles)
		}
		r.rec.end(parent, time.Now())
	}
}

// replaySeeds replays one lane's scenario cycle-accurately and the whole
// operation as one lane pack.
func replaySeeds(r *run, lt *layerTotals, op int, scs []engine.Scenario, res []engine.Result) {
	parent := r.rec.begin(0, op, "replay", time.Now())
	defer func() { r.rec.end(parent, time.Now()) }()
	i := op % len(scs)
	replayGenerate(r, lt, parent, op, &scs[i])
	if _, _, ok := replayCycle(r, lt, parent, op, &res[i], exec.Compiled(), exec.Event()); !ok {
		return
	}

	specs := make([]lane.Spec, len(scs))
	var cycles uint64
	for i := range scs {
		specs[i] = lane.Spec{Name: scs[i].Name, Topo: scs[i].Topology(), Analyzer: scs[i].Analyzer,
			Workloads: scs[i].Workloads, Cycles: scs[i].Cycles}
		cycles += scs[i].Cycles
	}
	var pack *lane.Pack
	var err error
	build := r.rec.time(parent, op, "lane.BuildPack", func() { pack, err = lane.BuildPack(specs) })
	if err != nil {
		r.fail("replay: %v", err)
		return
	}
	var outs []lane.Outcome
	run := r.rec.time(parent, op, "lane.Pack.Run", func() { outs = pack.Run(context.Background()) })
	lt.add("lane.build_ms", "ms", ms(build))
	lt.add("lane.ns_per_lane_cycle", "ns/cycle", float64(run.Nanoseconds())/float64(cycles))
	addPath(lt, build, run, cycles)
	for i, o := range outs {
		if o.Err != nil || o.Report == nil ||
			math.Float64bits(o.Report.TotalEnergy) != math.Float64bits(res[i].Report.TotalEnergy) {
			r.fail("replay: lane %s did not reproduce the runner's result (err %v)", scs[i].Name, o.Err)
			return
		}
	}

	// Pack counts come from the runner's own results: each member of a
	// pack reports the pack's occupancy.
	var packs float64
	lanes := 0
	for i := range res {
		if res[i].Backend == exec.NameLanes {
			packs += 1 / float64(res[i].Lanes)
			lanes++
		}
	}
	lt.add("lane.packs", "count", math.Round(packs))
	if packs > 0 {
		lt.add("lane.lanes_per_pack", "count", float64(lanes)/math.Round(packs))
	}
}

// replayEstimate replays one scenario per operation through the
// transaction-level estimator, then its cycle-accurate calibration prefix
// (the only part of the estimate that simulates) through the core and
// exec layers.
func replayEstimate(r *run, lt *layerTotals, op int, scs []engine.Scenario, res []engine.Result) {
	parent := r.rec.begin(0, op, "replay", time.Now())
	defer func() { r.rec.end(parent, time.Now()) }()
	i := op % len(scs)
	sc := &scs[i]
	replayGenerate(r, lt, parent, op, sc)

	spec := tlm.Spec{Name: sc.Name, Topo: sc.Topology(), Analyzer: sc.Analyzer, Workloads: sc.Workloads, Cycles: sc.Cycles}
	var p *tlm.Prepared
	var out *tlm.Outcome
	var est time.Duration
	var err error
	prep := r.rec.time(parent, op, "tlm.Prepare", func() { p, err = tlm.Prepare(spec) })
	if err == nil {
		est = r.rec.time(parent, op, "tlm.Estimate", func() { out, err = p.Estimate(context.Background()) })
		lt.add("tlm.estimate_ms", "ms", ms(est))
	}
	if err != nil {
		r.fail("replay: %v", err)
		return
	}
	lt.add("tlm.prepare_ms", "ms", ms(prep))
	lt.add("tlm.prefix_cycles", "count", float64(out.CalibrationCycles))
	if math.Float64bits(out.Report.TotalEnergy) != math.Float64bits(res[i].Report.TotalEnergy) {
		r.fail("replay: %s estimated %v, the runner %v", sc.Name, out.Report.TotalEnergy, res[i].Report.TotalEnergy)
	}
	addPath(lt, prep, est, sc.Cycles)

	prefix := *sc
	prefix.Cycles, prefix.Accuracy, prefix.Backend = out.CalibrationCycles, engine.AccuracyCycle, exec.NameEvent
	want := engine.RunOne(context.Background(), prefix)
	if err := checkResults([]engine.Result{want}, wantBackend(exec.NameEvent)); err != nil {
		r.fail("replay: calibration prefix: %v", err)
		return
	}
	replayCycle(r, lt, parent, op, &want, exec.Compiled(), exec.Event())

	fallbacks := 0
	for j := range res {
		if res[j].Accuracy != engine.AccuracyTransaction {
			fallbacks++
		}
	}
	lt.add("tlm.fallback_share", "ratio", float64(fallbacks)/float64(len(res)))
}

// replayGenerate times workload generation of a scenario's explicit
// traffic. Figures are per generated master-cycle: one master's script
// for one bus cycle of the horizon.
func replayGenerate(r *run, lt *layerTotals, parent, op int, sc *engine.Scenario) {
	var m0, m1 runtime.MemStats
	var err error
	runtime.ReadMemStats(&m0)
	d := r.rec.time(parent, op, "workload.Generate", func() {
		for _, c := range sc.Workloads {
			if _, err = workload.Generate(c); err != nil {
				return
			}
		}
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		r.fail("replay: %s: %v", sc.Name, err)
		return
	}
	masterCycles := float64(sc.Cycles) * float64(len(sc.Workloads))
	lt.add("workload.gen_ns_per_cycle", "ns/cycle", float64(d.Nanoseconds())/masterCycles)
	lt.add("workload.alloc_b_per_cycle", "B/cycle", float64(m1.TotalAlloc-m0.TotalAlloc)/masterCycles)
}

// replayCycle rebuilds one cycle-accurate scenario step by step and runs
// it with the analyzer on every listed backend, then once without the
// analyzer on the first, the backend closest to the workload's own path.
// The analyzer ratio is the paper's instrumentation-overhead claim. It
// returns the first backend's build and run times; ok is false when the
// replay failed, which it records as a failed check.
func replayCycle(r *run, lt *layerTotals, parent, op int, want *engine.Result, backends ...exec.Backend) (build, run time.Duration, ok bool) {
	sc := &want.Scenario
	ctx := context.Background()
	perCycle := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(sc.Cycles) }

	construct := func(analyze bool) (sys *core.System, an *core.Analyzer, d time.Duration, err error) {
		start := time.Now()
		r.rec.time(parent, op, "core.NewSystemTopo", func() { sys, err = core.NewSystemTopo(sc.Topology()) })
		if err == nil {
			r.rec.time(parent, op, "core.LoadWorkload", func() { err = sys.LoadWorkload(sc.Workloads...) })
		}
		if err == nil && analyze {
			r.rec.time(parent, op, "core.Attach", func() { an, err = core.Attach(sys, sc.Analyzer) })
		}
		return sys, an, time.Since(start), err
	}

	for i, b := range backends {
		sys, an, d, err := construct(true)
		if err == nil {
			took := r.rec.time(parent, op, "exec."+b.Name()+".Run", func() { err = b.Run(ctx, sys, sc.Cycles) })
			lt.add("exec."+b.Name()+"_ns_per_cycle", "ns/cycle", perCycle(took))
			if i == 0 {
				build, run = d, took
				lt.add("core.build_ms", "ms", ms(d))
			}
		}
		if err != nil {
			r.fail("replay: %s: %v", sc.Name, err)
			return 0, 0, false
		}
		if b.Name() == exec.NameEvent {
			// Kept from the first replay only: that scenario is fixed by the
			// seed, so the count repeats exactly across runs of one seed.
			lt.once("sim.deltas_per_cycle", "count", float64(sys.K.DeltaCycles())/float64(sys.Bus.Cycles()))
		}
		if got := an.Report().TotalEnergy; math.Float64bits(got) != math.Float64bits(want.Report.TotalEnergy) {
			r.fail("replay: %s on %s: energy %v, the runner %v", sc.Name, b.Name(), got, want.Report.TotalEnergy)
			return 0, 0, false
		}
	}

	sys, _, _, err := construct(false)
	if err == nil {
		bare := r.rec.time(parent, op, fmt.Sprintf("exec.%s.Run(bare)", backends[0].Name()), func() { err = backends[0].Run(ctx, sys, sc.Cycles) })
		lt.add("core.analyzer_x", "x", run.Seconds()/bare.Seconds())
	}
	if err != nil {
		r.fail("replay: %s bare: %v", sc.Name, err)
		return 0, 0, false
	}
	return build, run, true
}
