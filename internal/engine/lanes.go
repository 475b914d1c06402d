package engine

// Lane scheduling: the runner's integration with the bit-parallel lane
// backend (internal/lane). Scenarios whose Plan says lanes are grouped by
// structural key — same canonical bus shape, clock and policy — and
// executed as packs of up to lane.MaxLanes scenarios per simulation, one
// scenario per bit of the pack's uint64 words. Per-lane results are
// scattered back into ordinary Results that are bit-identical to the
// event backend's; scenarios the plan sends elsewhere run per scenario
// with the reason surfaced in Result.BackendFallback.

import (
	"context"
	"fmt"
	"time"

	"ahbpower/internal/exec"
	"ahbpower/internal/lane"
	"ahbpower/internal/metrics"
)

// runJob is one unit of runner work: a single scenario index, or a lane
// pack of scenario indices (pack non-nil, led by index).
type runJob struct {
	index int
	pack  []int
}

// scheduleLanes partitions a batch into runner jobs. Eligible lane
// scenarios are grouped by structural key in first-seen order and chunked
// into packs of at most lane.MaxLanes; each pack becomes one job at the
// position of its first member, and everything else stays a per-scenario
// job in input order. Batches with no lanes hint keep the trivial plan.
func scheduleLanes(scenarios []Scenario) []runJob {
	anyLanes := false
	for i := range scenarios {
		if scenarios[i].Backend == exec.NameLanes {
			anyLanes = true
			break
		}
	}
	jobs := make([]runJob, 0, len(scenarios))
	if !anyLanes {
		for i := range scenarios {
			jobs = append(jobs, runJob{index: i})
		}
		return jobs
	}
	eligible := make([]bool, len(scenarios))
	packOf := make(map[int][]int) // first member index → full pack
	groups := make(map[string][]int)
	for i := range scenarios {
		if p, err := scenarios[i].Plan(); err != nil || p.Path != lane.Name {
			continue
		}
		eligible[i] = true
		k := lane.Key(scenarios[i].Topology())
		g := append(groups[k], i)
		if len(g) == lane.MaxLanes {
			packOf[g[0]] = g
			g = nil
		}
		groups[k] = g
	}
	for _, g := range groups {
		if len(g) > 0 {
			packOf[g[0]] = g
		}
	}
	for i := range scenarios {
		switch {
		case !eligible[i]:
			jobs = append(jobs, runJob{index: i})
		case packOf[i] != nil:
			jobs = append(jobs, runJob{index: i, pack: packOf[i]})
		}
	}
	return jobs
}

// laneSpec projects a scenario into the lane backend's spec form.
func laneSpec(sc *Scenario) lane.Spec {
	return lane.Spec{
		Name:         sc.Name,
		Topo:         sc.Topology(),
		Analyzer:     sc.Analyzer,
		Workloads:    sc.Workloads,
		Cycles:       sc.Cycles,
		SkipAnalyzer: sc.SkipAnalyzer,
	}
}

// execLanePack builds and runs one pack, capturing a build failure or a
// panic as a per-lane error. Build time is kept separate from the packed
// simulation's wall time so run metrics stay comparable to the other
// backends.
func execLanePack(ctx context.Context, specs []lane.Spec) (outs []lane.Outcome, lanes int, build, run time.Duration) {
	lanes = len(specs)
	defer func() {
		if p := recover(); p != nil {
			err := fmt.Errorf("lane pack panicked: %v", p)
			outs = make([]lane.Outcome, len(specs))
			for i := range outs {
				outs[i].Err = err
			}
		}
	}()
	buildStart := time.Now()
	pack, err := lane.BuildPack(specs)
	if err != nil {
		outs = make([]lane.Outcome, len(specs))
		for i := range outs {
			outs[i].Err = err
		}
		return outs, lanes, time.Since(buildStart), 0
	}
	build = time.Since(buildStart)
	start := time.Now()
	outs = pack.Run(ctx)
	run = time.Since(start)
	return outs, pack.Lanes(), build, run
}

// scatterOutcome copies one lane Outcome into an engine Result, wrapping
// any lane error in the engine's per-scenario error format. All members
// of a pack share the pack's build and run wall times: the simulation
// advanced them together.
func scatterOutcome(res *Result, o lane.Outcome, build, run time.Duration) {
	if o.Err != nil {
		res.Err = fmt.Errorf("engine: scenario %q: %w", res.Scenario.Name, o.Err)
		return
	}
	res.Report = o.Report
	res.Stats = o.Stats
	res.Beats = o.Beats
	res.Counts = o.Counts
	res.Violations = o.Violations
	res.Metrics = metrics.NewRunMetrics(o.Cycles, 0, build, run)
}

// runPack executes one lane pack inside a runner batch: every member
// reports OnStart when the pack begins, the pack runs as one packed
// simulation, and each member's Result is scattered (and OnDone fired) in
// member order. A cancellation mid-pack keeps the results of lanes that
// already retired.
func (r *Runner) runPack(ctx context.Context, scenarios []Scenario, members []int, results []Result, executed []bool) {
	if r.OnStart != nil {
		for _, i := range members {
			r.OnStart(i)
		}
	}
	specs := make([]lane.Spec, len(members))
	for j, i := range members {
		specs[j] = laneSpec(&scenarios[i])
	}
	outs, lanes, build, run := execLanePack(ctx, specs)
	for j, i := range members {
		res := Result{Index: i, Scenario: scenarios[i], Attempts: 1, Backend: lane.Name, Lanes: lanes, Accuracy: AccuracyCycle}
		scatterOutcome(&res, outs[j], build, run)
		typeErr(ctx, &res)
		results[i] = res
		executed[i] = true
		if r.OnDone != nil {
			r.OnDone(res)
		}
	}
}
