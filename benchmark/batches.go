package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/exec"
	"ahbpower/internal/tlm"
	"ahbpower/internal/workload"
)

const (
	// defaultSeed is the seed fingerprints.json was recorded at.
	defaultSeed = 1
	// setupReps is how many times a workload sets up before timing: an
	// engine workload builds a batch and runs it untimed, the serve
	// workload restarts its daemon. setup_s is their median.
	setupReps = 5
	// minOps keeps a median meaningful when --seconds is very short.
	minOps = 5
	// paperMasters is the number of traffic-driven masters of the paper
	// testbench (core.PaperSystem).
	paperMasters = 2

	sweepCycles    = 20_000
	seedsLanes     = 64
	seedsCycles    = 10_000
	estimateCycles = 1_000_000
)

// Divergence budget of the transaction-level estimate against the
// cycle-accurate path (DESIGN.md §12): median and worst scenario.
const (
	tlmMedianBudget = 0.05
	tlmMaxBudget    = 0.15
)

var globalAnalyzer = core.AnalyzerConfig{Style: core.StyleGlobal}

// batchSpec is one engine workload: a closed loop of identical-shape
// batches through engine.DefaultRunner, one batch per timed operation.
type batchSpec struct {
	name string
	// build returns the batch of one operation; seed is the operation's
	// own seed.
	build func(seed int64) []engine.Scenario
	// expect, when set, checks how a result was produced.
	expect func(*engine.Result) error
	// replay re-executes a sample of one traced operation step by step
	// through the layers the workload exercises.
	replay func(r *run, lt *layerTotals, op int, scs []engine.Scenario, res []engine.Result)
	// estimates marks the transaction-level workload, whose results are
	// checked against a divergence budget instead of bit for bit.
	estimates bool
}

// paperTraffic is the paper testbench traffic for every active master,
// sized to cycles like core.System.LoadPaperWorkload, with seeds derived
// from seed so every scenario of every operation has traffic of its own.
func paperTraffic(seed int64, cycles uint64, base, size uint32) []workload.Config {
	cfgs := make([]workload.Config, paperMasters)
	for m := range cfgs {
		c := workload.PaperTestbench(m, int(cycles)/100+2)
		c.Seed = deriveSeed(seed, m)
		c.AddrBase, c.AddrSize = base, size
		cfgs[m] = c
	}
	return cfgs
}

var arbPolicies = []ahb.ArbPolicy{ahb.PolicySticky, ahb.PolicyFixed, ahb.PolicyRoundRobin}

var sweepSpec = batchSpec{
	name: "sweep",
	build: func(seed int64) []engine.Scenario {
		// ahbsweep's default design grid at a longer horizon.
		grid := engine.Grid{
			Base:     core.PaperSystem(),
			Analyzer: globalAnalyzer,
			Cycles:   sweepCycles,
			Slaves:   []int{2, 3, 8},
			Widths:   []int{16, 32},
			Waits:    []int{0, 1, 2},
			Policies: arbPolicies,
		}
		scs := grid.Scenarios()
		for i := range scs {
			t := scs[i].Topology()
			base, size := t.AddrSpan()
			scs[i].Workloads = paperTraffic(deriveSeed(seed, i), sweepCycles, base, size)
			scs[i].Backend = exec.NameAuto
		}
		return scs
	},
	replay: replaySweep,
}

var seedsSpec = batchSpec{
	name: "seeds",
	build: func(seed int64) []engine.Scenario {
		sys := core.PaperSystem()
		t := sys.Topology()
		base, size := t.AddrSpan()
		scs := make([]engine.Scenario, seedsLanes)
		for i := range scs {
			scs[i] = engine.Scenario{
				Name:      fmt.Sprintf("seed%02d", i),
				System:    sys,
				Analyzer:  globalAnalyzer,
				Workloads: paperTraffic(deriveSeed(seed, i), seedsCycles, base, size),
				Cycles:    seedsCycles,
				Backend:   exec.NameLanes,
			}
		}
		return scs
	},
	replay: replaySeeds,
}

var estimatePatterns = []workload.Pattern{workload.PatternRandom, workload.PatternLowActivity, workload.PatternCounter}

var estimateSpec = batchSpec{
	name: "estimate",
	build: func(seed int64) []engine.Scenario {
		// tools/tlmcheck's base families at the horizon the estimator
		// exists for.
		var scs []engine.Scenario
		for _, pol := range arbPolicies {
			for _, pat := range estimatePatterns {
				sys := core.PaperSystem()
				sys.Policy = pol
				scs = append(scs, engine.Scenario{
					Name:     fmt.Sprintf("%s/%s", pol, pat),
					System:   sys,
					Analyzer: globalAnalyzer,
					Workloads: []workload.Config{{
						Seed:         deriveSeed(seed, len(scs)),
						NumSequences: estimateCycles/20 + 4,
						PairsMin:     2, PairsMax: 8,
						IdleMin: 1, IdleMax: 6,
						AddrSize: 3 * 0x1000,
						Pattern:  pat,
					}},
					Cycles:   estimateCycles,
					Accuracy: engine.AccuracyTransaction,
				})
			}
		}
		return scs
	},
	expect: func(res *engine.Result) error {
		if res.Backend != tlm.Name || res.Accuracy != engine.AccuracyTransaction {
			return fmt.Errorf("ran on %s at %s accuracy, want the transaction-level estimate (fallback: %q)",
				res.Backend, res.Accuracy, res.BackendFallback)
		}
		return nil
	},
	replay:    replayEstimate,
	estimates: true,
}

func wantBackend(name string) func(*engine.Result) error {
	return func(res *engine.Result) error {
		if res.Backend != name || res.BackendFallback != "" {
			return fmt.Errorf("ran on %s (fallback %q), want %s", res.Backend, res.BackendFallback, name)
		}
		return nil
	}
}

// batchCycles is the bus cycles a batch simulates or estimates.
func batchCycles(scs []engine.Scenario) uint64 {
	var n uint64
	for i := range scs {
		n += scs[i].Cycles
	}
	return n
}

// checkResults returns the first problem with a batch's results: a
// failed scenario, a protocol violation, a missing or non-positive
// energy, or a problem expect reports.
func checkResults(res []engine.Result, expect func(*engine.Result) error) error {
	for i := range res {
		rs := &res[i]
		switch {
		case rs.Err != nil:
			return rs.Err
		case len(rs.Violations) > 0:
			return fmt.Errorf("%s: %d protocol violations (first: %v)", rs.Scenario.Name, len(rs.Violations), rs.Violations[0])
		case rs.Report == nil || !(rs.Report.TotalEnergy > 0):
			return fmt.Errorf("%s: no energy reported", rs.Scenario.Name)
		}
		if expect != nil {
			if err := expect(rs); err != nil {
				return fmt.Errorf("%s: %w", rs.Scenario.Name, err)
			}
		}
	}
	return nil
}

// layerTotals accumulates per-layer samples, and their units, over the
// traced operations.
type layerTotals struct {
	samples map[string][]float64
	units   map[string]string
}

func (lt *layerTotals) add(name, unit string, v float64) {
	if lt.samples == nil {
		lt.samples, lt.units = map[string][]float64{}, map[string]string{}
	}
	lt.samples[name] = append(lt.samples[name], v)
	lt.units[name] = unit
}

// once records v only as the first sample of name.
func (lt *layerTotals) once(name, unit string, v float64) {
	if len(lt.samples[name]) == 0 {
		lt.add(name, unit, v)
	}
}

// merge adds every sample of o.
func (lt *layerTotals) merge(o *layerTotals) {
	for name, xs := range o.samples {
		for _, x := range xs {
			lt.add(name, o.units[name], x)
		}
	}
}

// report publishes the median of every accumulated sample series.
func (lt *layerTotals) report(r *run) {
	for name, xs := range lt.samples {
		r.layer(name, lt.units[name], median(xs))
	}
}

// runBatches drives one engine workload: setupReps untimed set-up
// batches, then timed batches until the window closes, then the output
// checks. In a traced run every other operation is traced, so the
// untraced ones measure the tracing overhead on the same host.
func runBatches(r *run, b batchSpec) {
	ctx := context.Background()
	runner := engine.DefaultRunner()
	seen := map[string]bool{}
	op := 0
	// next builds the batch of the next operation and reports how many of
	// its scenarios repeat one already run in this process.
	next := func() ([]engine.Scenario, int, time.Duration) {
		scs := b.build(deriveSeed(r.seed, b.name, op))
		op++
		repeats := 0
		start := time.Now()
		for i := range scs {
			key, ok := scs[i].CanonicalKey()
			if !ok {
				panic("benchmark scenarios must be cacheable")
			}
			if seen[key] {
				repeats++
			}
			seen[key] = true
		}
		return scs, repeats, time.Since(start) / time.Duration(len(scs))
	}

	// Each set-up starts from a heap released to the OS, as in a fresh
	// process.
	var setups []float64
	var checked []engine.Result // the first set-up batch, checked in full below
	for i := 0; i < setupReps; i++ {
		debug.FreeOSMemory()
		start := time.Now()
		scs, _, _ := next()
		res := runner.Run(ctx, scs)
		setups = append(setups, time.Since(start).Seconds())
		if err := checkResults(res, b.expect); err != nil {
			r.fail("set-up batch %d: %v", i, err)
		}
		if i == 0 {
			checked = res
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: set-ups %.3f s\n", setups)
	r.e2e("setup_s", "s", median(setups))

	var lt layerTotals
	var walls []time.Duration
	var tracedWalls []float64
	var peaks []float64         // resident-set peak of each untraced batch, MB
	var samples []engine.Result // one result per operation, re-run on the reference backend below
	var repeats, scenarios int
	var cycles uint64 // simulated (for estimates, estimated) bus cycles of the timed batches
	var gcs uint32
	var allocs uint64
	deadline := time.Now().Add(r.seconds)
	for n := 0; n < minOps || time.Now().Before(deadline); n++ {
		scs, rep, keyCost := next()
		repeats += rep
		scenarios += len(scs)
		traced := r.traced() && n%2 == 1
		if !traced {
			cycles += batchCycles(scs)
		}
		var res []engine.Result
		runtime.GC()
		var m0, m1 runtime.MemStats
		if !traced {
			runtime.ReadMemStats(&m0)
			peak := sampleRSS()
			start := time.Now()
			res = runner.Run(ctx, scs)
			walls = append(walls, time.Since(start))
			mb, err := peak()
			if err != nil {
				r.fail("resident set: %v", err)
			}
			peaks = append(peaks, mb)
			runtime.ReadMemStats(&m1)
			gcs += (m1.NumGC - m0.NumGC) - (m1.NumForcedGC - m0.NumForcedGC)
			allocs += m1.TotalAlloc - m0.TotalAlloc
		} else {
			var wall time.Duration
			res, wall = tracedRun(r, &lt, runner, n, scs)
			tracedWalls = append(tracedWalls, ms(wall))
			lt.add("engine.key_us", "us", float64(keyCost)/float64(time.Microsecond))
		}
		r.attempted++
		if err := checkResults(res, b.expect); err != nil {
			r.failed++
			r.fail("operation %d: %v", n, err)
			continue
		}
		samples = append(samples, res[n%len(res)])
		if traced {
			b.replay(r, &lt, n, scs, res)
		}
	}
	if repeats > 0 {
		r.fail("%d of %d timed scenarios repeated an earlier one", repeats, scenarios)
	}
	xs := make([]float64, len(walls))
	for i, d := range walls {
		xs[i] = ms(d)
	}
	fmt.Fprintf(os.Stderr, "benchmark: batch ms %s\n", spreadLine(xs))
	r.e2e("cycles_per_s", "cycles/s", throughput(cycles/uint64(len(walls)), walls))
	r.e2e("op_p50_ms", "ms", median(xs))
	r.e2e("peak_rss_mb", "MB", median(peaks))

	if r.traced() {
		lt.report(r)
		r.layer("bench.repeat_share", "ratio", float64(repeats)/float64(scenarios))
		reportOps(r, xs, tracedWalls)
		untraced := float64(len(walls))
		r.layer("runtime.gc_per_op", "count", float64(gcs)/untraced)
		r.layer("runtime.alloc_mb_per_op", "MB", float64(allocs)/untraced/(1<<20))
	}

	verifyBatches(r, b, runner, checked, samples)
}

// reportOps publishes, from the operation times of a traced run in ms,
// the operation count, the median and tail of the untraced operations xs,
// and the tracing overhead: how much slower the traced operations ts ran
// than the untraced ones interleaved with them.
func reportOps(r *run, xs, ts []float64) {
	r.layer("bench.ops", "count", float64(len(xs)+len(ts)))
	r.layer("bench.op_p50_ms", "ms", median(xs))
	if q, ok := tailLevel(len(xs)); ok {
		r.layer("bench.op_tail_ms", "ms", quantile(xs, q))
		r.layer("bench.op_tail_pct", "%", 100*q)
	}
	if m := median(xs); m > 0 && len(ts) > 0 {
		r.layer("bench.trace_overhead_pct", "%", 100*(median(ts)/m-1))
	}
}

// tracedRun runs one batch with spans around Runner.Run and around every
// scenario, from the runner's OnStart/OnDone hooks, and accumulates the
// engine layer's wait, busy and utilization figures. Busy time weights
// each scenario by 1/occupancy of the lane pack that ran it: a pack is
// one job on one worker, however many scenarios it carries.
func tracedRun(r *run, lt *layerTotals, base *engine.Runner, op int, scs []engine.Scenario) ([]engine.Result, time.Duration) {
	starts := make([]time.Time, len(scs))
	ends := make([]time.Time, len(scs))
	runner := *base
	runner.OnStart = func(i int) { starts[i] = time.Now() }
	runner.OnDone = func(res engine.Result) { ends[res.Index] = time.Now() }
	start := time.Now()
	res := runner.Run(context.Background(), scs)
	end := time.Now()
	wall := end.Sub(start)

	opID := r.rec.add(0, op, "op", start, end)
	runID := r.rec.add(opID, op, "engine.Runner.Run", start, end)
	var wait, busy time.Duration
	retries, failed := 0, 0
	for i := range res {
		r.rec.add(runID, op, "engine.scenario", starts[i], ends[i])
		wait += starts[i].Sub(start)
		weight := 1.0
		if res[i].Lanes > 1 {
			weight = 1 / float64(res[i].Lanes)
		}
		busy += time.Duration(weight * float64(ends[i].Sub(starts[i])))
		retries += max(res[i].Attempts-1, 0)
		if res[i].Err != nil {
			failed++
		}
	}
	lt.add("engine.wait_ms", "ms", ms(wait)/float64(len(res)))
	lt.add("engine.busy_s", "s", busy.Seconds())
	lt.add("engine.utilization", "ratio", busy.Seconds()/(float64(runner.Workers)*wall.Seconds()))
	lt.add("engine.retries", "count", float64(retries))
	lt.add("engine.failed", "count", float64(failed))
	return res, wall
}

// verifyBatches runs the output checks that need extra executions: the
// per-operation samples re-run on the event backend (the reference the
// other paths must match bit for bit), the estimate's divergence from the
// cycle-accurate path, and the fingerprint of the default seed's first
// batch (for the estimate, with its cycle-accurate twins). It reports the
// worst energy error it found against the cycle-accurate reference.
func verifyBatches(r *run, b batchSpec, runner *engine.Runner, checked, samples []engine.Result) {
	ctx := context.Background()
	if !b.estimates {
		var worst float64
		// Up to eight samples spread over the run.
		step := max(len(samples)/8, 1)
		for i := 0; i < len(samples); i += step {
			sc := samples[i].Scenario
			sc.Backend = exec.NameEvent
			ref := engine.RunOne(ctx, sc)
			if err := checkResults([]engine.Result{ref}, wantBackend(exec.NameEvent)); err != nil {
				r.fail("event-backend reference: %v", err)
				continue
			}
			if err := sameResult(&samples[i], &ref); err != nil {
				r.fail("%s differs from the event backend: %v", b.name, err)
			}
			worst = max(worst, relErr(samples[i].Report.TotalEnergy, ref.Report.TotalEnergy))
		}
		r.layer("accuracy.energy_err_pct", "%", 100*worst)
	}

	res := runner.Run(ctx, b.build(deriveSeed(defaultSeed, b.name, 0)))
	if err := checkResults(res, b.expect); err != nil {
		r.fail("reference batch: %v", err)
		return
	}
	if b.estimates {
		// The budget holds on this run's own traffic; the reported error is
		// the reference batch's, which is the same traffic in every run, so
		// two builds compare exactly instead of through seed-to-seed
		// variation of a worst case over nine scenarios.
		divergence(r, runner, checked)
		exact, worst := divergence(r, runner, res)
		if exact == nil {
			return
		}
		r.layer("accuracy.energy_err_pct", "%", 100*worst)
		res = append(res, exact...)
	}
	r.checkFingerprint(fingerprintResults(res))
}

// divergence runs the cycle-accurate twins of a batch of estimates and
// checks the estimates' relative energy error against the budget. It
// returns the twins' results and the worst scenario's error, or no
// results if a twin failed.
func divergence(r *run, runner *engine.Runner, estimates []engine.Result) (exact []engine.Result, worst float64) {
	twins := make([]engine.Scenario, len(estimates))
	for i := range estimates {
		twins[i] = estimates[i].Scenario
		twins[i].Accuracy = engine.AccuracyCycle
		twins[i].Backend = exec.NameAuto
	}
	exact = runner.Run(context.Background(), twins)
	if err := checkResults(exact, func(res *engine.Result) error {
		if res.Accuracy != engine.AccuracyCycle {
			return fmt.Errorf("ran at %s accuracy", res.Accuracy)
		}
		return nil
	}); err != nil {
		r.fail("cycle-accurate reference: %v", err)
		return nil, 0
	}
	divs := make([]float64, len(exact))
	for i := range exact {
		divs[i] = relErr(estimates[i].Report.TotalEnergy, exact[i].Report.TotalEnergy)
	}
	worst = quantile(divs, 1)
	if med := median(divs); med > tlmMedianBudget || worst > tlmMaxBudget {
		r.fail("estimate divergence median %.2f%% / max %.2f%% exceeds the %.0f%% / %.0f%% budget",
			100*med, 100*worst, 100*tlmMedianBudget, 100*tlmMaxBudget)
	}
	return exact, worst
}

// relErr is the relative error of an energy against its reference.
func relErr(got, want float64) float64 { return math.Abs(got-want) / want }
