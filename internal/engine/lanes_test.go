package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ahbpower/internal/core"
	"ahbpower/internal/exec"
	"ahbpower/internal/fault"
	"ahbpower/internal/lane"
	"ahbpower/internal/metrics"
	"ahbpower/internal/workload"
)

// laneScenario builds a lane-eligible scenario on the paper system with a
// small explicit workload (implicit paper workloads are sized from Cycles
// and must not be combined with huge cycle counts).
func laneScenario(name string, seed int64) Scenario {
	return Scenario{
		Name:     name,
		System:   core.PaperSystem(),
		Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal},
		Workloads: []workload.Config{
			{Seed: seed, NumSequences: 12, PairsMin: 2, PairsMax: 5, AddrSize: 0x4000},
		},
		Cycles:  1200,
		Backend: exec.NameLanes,
	}
}

// planString renders a job plan compactly: "s2" is a per-scenario job,
// "p[0 3 4]" a lane pack.
func planString(jobs []runJob) string {
	var b strings.Builder
	for _, j := range jobs {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if j.pack == nil {
			fmt.Fprintf(&b, "s%d", j.index)
		} else {
			fmt.Fprintf(&b, "p%v", j.pack)
		}
	}
	return b.String()
}

// TestScheduleLanesIneligible drives every per-scenario eligibility gate:
// each mutated scenario must stay a per-scenario job next to a packed
// eligible one.
func TestScheduleLanesIneligible(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"other-backend", func(sc *Scenario) { sc.Backend = exec.NameCompiled }},
		{"default-backend", func(sc *Scenario) { sc.Backend = "" }},
		{"setup-hook", func(sc *Scenario) { sc.Setup = func(*core.System) error { return nil } }},
		{"timeout", func(sc *Scenario) { sc.Timeout = time.Second }},
		{"fault-plan", func(sc *Scenario) {
			sc.Faults = &fault.Plan{Seed: 1, Rules: []fault.Rule{{Kind: fault.KindWaits, Slave: -1, Master: -1}}}
		}},
		{"zero-cycles", func(sc *Scenario) { sc.Cycles = 0 }},
		{"private-style", func(sc *Scenario) { sc.Analyzer.Style = core.StylePrivate }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			other := laneScenario("other", 2)
			tc.mut(&other)
			plan := scheduleLanes([]Scenario{laneScenario("ok", 1), other})
			if got := planString(plan); got != "p[0] s1" {
				t.Fatalf("plan = %q, want %q", got, "p[0] s1")
			}
		})
	}
}

// TestScheduleLanesGrouping checks structural grouping: compatible
// eligible scenarios share a pack placed at their first member's slot,
// structurally different ones get their own pack, ineligible ones stay
// per-scenario jobs in input order.
func TestScheduleLanesGrouping(t *testing.T) {
	a0 := laneScenario("a0", 1)
	bad := laneScenario("bad", 2)
	bad.Setup = func(*core.System) error { return nil }
	a1 := laneScenario("a1", 3)
	wide := laneScenario("wide", 4)
	wide.System.NumSlaves = 4
	a2 := laneScenario("a2", 5)
	ev := laneScenario("ev", 6)
	ev.Backend = exec.NameEvent

	plan := scheduleLanes([]Scenario{a0, bad, a1, wide, a2, ev})
	want := "p[0 2 4] s1 p[3] s5"
	if got := planString(plan); got != want {
		t.Fatalf("plan = %q, want %q", got, want)
	}

	// A batch with no lanes hint keeps the trivial one-job-per-scenario plan.
	trivial := scheduleLanes([]Scenario{ev, ev})
	if got := planString(trivial); got != "s0 s1" {
		t.Fatalf("trivial plan = %q, want %q", got, "s0 s1")
	}
}

// TestScheduleLanesSpillover packs 65 compatible scenarios as a full
// 64-lane pack plus a spillover pack of one, with a trailing ineligible
// scenario kept per-scenario.
func TestScheduleLanesSpillover(t *testing.T) {
	var scs []Scenario
	for i := 0; i < 65; i++ {
		scs = append(scs, laneScenario(fmt.Sprintf("s%02d", i), int64(i)))
	}
	tail := laneScenario("tail", 99)
	tail.Backend = exec.NameCompiled
	scs = append(scs, tail)

	plan := scheduleLanes(scs)
	if len(plan) != 3 {
		t.Fatalf("got %d jobs (%s), want 3", len(plan), planString(plan))
	}
	if len(plan[0].pack) != 64 || plan[0].pack[0] != 0 || plan[0].pack[63] != 63 {
		t.Errorf("first pack = %v, want lanes 0..63", plan[0].pack)
	}
	if len(plan[1].pack) != 1 || plan[1].pack[0] != 64 {
		t.Errorf("spillover pack = %v, want [64]", plan[1].pack)
	}
	if plan[2].pack != nil || plan[2].index != 65 {
		t.Errorf("tail job = %+v, want per-scenario job 65", plan[2])
	}
}

// assertLaneResult compares a lane-executed result against the event
// reference bit-for-bit.
func assertLaneResult(t *testing.T, name string, lr, ev Result) {
	t.Helper()
	if lr.Err != nil {
		t.Fatalf("%s: lane result error: %v", name, lr.Err)
	}
	if lr.Beats != ev.Beats {
		t.Errorf("%s: Beats lane=%d event=%d", name, lr.Beats, ev.Beats)
	}
	if !reflect.DeepEqual(lr.Counts, ev.Counts) {
		t.Errorf("%s: Counts diverge:\nlane:  %v\nevent: %v", name, lr.Counts, ev.Counts)
	}
	if !reflect.DeepEqual(lr.Violations, ev.Violations) {
		t.Errorf("%s: Violations diverge", name)
	}
	if !reflect.DeepEqual(lr.Stats, ev.Stats) {
		t.Errorf("%s: Stats diverge:\nlane:  %+v\nevent: %+v", name, lr.Stats, ev.Stats)
	}
	if (lr.Report == nil) != (ev.Report == nil) {
		t.Fatalf("%s: Report presence lane=%v event=%v", name, lr.Report != nil, ev.Report != nil)
	}
	if lr.Report != nil {
		lb, eb := math.Float64bits(lr.Report.TotalEnergy), math.Float64bits(ev.Report.TotalEnergy)
		if lb != eb {
			t.Errorf("%s: TotalEnergy bits lane=%#x event=%#x", name, lb, eb)
		}
		if !reflect.DeepEqual(lr.Report, ev.Report) {
			t.Errorf("%s: Report diverges", name)
		}
	}
}

// TestRunnerLanePacking runs a mixed batch — six pack-compatible lane
// scenarios, two structurally different ones, one ineligible fallback —
// and checks backend attribution, pack occupancy, hook accounting and
// bit-identity against per-scenario event runs.
func TestRunnerLanePacking(t *testing.T) {
	var scs []Scenario
	for i := 0; i < 6; i++ {
		scs = append(scs, laneScenario(fmt.Sprintf("a%d", i), int64(10+i)))
	}
	for i := 0; i < 2; i++ {
		w := laneScenario(fmt.Sprintf("w%d", i), int64(20+i))
		w.System.NumSlaves = 4
		scs = append(scs, w)
	}
	fb := laneScenario("fb", 30)
	fb.Setup = func(*core.System) error { return nil }
	scs = append(scs, fb)

	r := NewRunner(3)
	var started, done atomic.Int32
	r.OnStart = func(int) { started.Add(1) }
	r.OnDone = func(Result) { done.Add(1) }
	results := r.Run(context.Background(), scs)

	if s, d := started.Load(), done.Load(); s != int32(len(scs)) || d != int32(len(scs)) {
		t.Errorf("hooks: started=%d done=%d, want %d each", s, d, len(scs))
	}
	for i, res := range results {
		if res.Index != i || res.Err != nil {
			t.Fatalf("result %d (%s): index=%d err=%v", i, res.Scenario.Name, res.Index, res.Err)
		}
		wantLanes := 0
		switch {
		case i < 6:
			wantLanes = 6
		case i < 8:
			wantLanes = 2
		}
		if wantLanes > 0 {
			if res.Backend != exec.NameLanes || res.Lanes != wantLanes || res.BackendFallback != "" {
				t.Errorf("%s: backend=%q lanes=%d fallback=%q, want lanes backend with %d lanes",
					res.Scenario.Name, res.Backend, res.Lanes, res.BackendFallback, wantLanes)
			}
		} else {
			if res.Backend != exec.NameEvent || res.Lanes != 0 || res.BackendFallback != "custom Setup hook" {
				t.Errorf("%s: backend=%q lanes=%d fallback=%q, want event fallback for the Setup hook",
					res.Scenario.Name, res.Backend, res.Lanes, res.BackendFallback)
			}
		}
		ev := scs[i]
		ev.Backend = exec.NameEvent
		ev.Setup = nil
		evRes := RunOne(context.Background(), ev)
		if evRes.Err != nil {
			t.Fatalf("event reference %s: %v", ev.Name, evRes.Err)
		}
		assertLaneResult(t, res.Scenario.Name, res, evRes)
	}
}

// TestRunOneLaneBackend covers the single-scenario path: an eligible
// lanes hint runs as a one-lane pack, an ineligible one falls back to the
// event backend with the reason surfaced.
func TestRunOneLaneBackend(t *testing.T) {
	sc := laneScenario("solo", 7)
	res := RunOne(context.Background(), sc)
	if res.Err != nil {
		t.Fatalf("lane run: %v", res.Err)
	}
	if res.Backend != exec.NameLanes || res.Lanes != 1 {
		t.Fatalf("backend=%q lanes=%d, want single-lane pack", res.Backend, res.Lanes)
	}
	ev := sc
	ev.Backend = exec.NameEvent
	assertLaneResult(t, "solo", res, RunOne(context.Background(), ev))

	to := laneScenario("timeout", 8)
	to.Timeout = time.Minute
	fbRes := RunOne(context.Background(), to)
	if fbRes.Err != nil {
		t.Fatalf("fallback run: %v", fbRes.Err)
	}
	if fbRes.Backend != exec.NameEvent || fbRes.BackendFallback != "per-scenario timeout" {
		t.Fatalf("backend=%q fallback=%q, want event with surfaced timeout reason",
			fbRes.Backend, fbRes.BackendFallback)
	}
}

// TestRunnerLanePackCancellation cancels a two-lane pack after the short
// lane retired but long before the (practically unbounded) second lane
// could: the retired lane keeps its full result, the unfinished one fails
// with a canceled-classed ScenarioError.
func TestRunnerLanePackCancellation(t *testing.T) {
	short := laneScenario("short", 1)
	short.Cycles = 100
	long := laneScenario("long", 2)
	long.Cycles = 1 << 40

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(1)
	var results []Result
	doneCh := make(chan struct{})
	go func() {
		results = r.Run(ctx, []Scenario{short, long})
		close(doneCh)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	<-doneCh

	if results[0].Err != nil {
		t.Fatalf("short lane lost its result: %v", results[0].Err)
	}
	if results[0].Backend != exec.NameLanes || results[0].Lanes != 2 {
		t.Errorf("short lane: backend=%q lanes=%d, want lanes/2", results[0].Backend, results[0].Lanes)
	}
	ev := short
	ev.Backend = exec.NameEvent
	assertLaneResult(t, "short", results[0], RunOne(context.Background(), ev))

	var se *ScenarioError
	if !errors.As(results[1].Err, &se) || se.Class != ClassCanceled {
		t.Fatalf("long lane err = %v, want canceled-classed ScenarioError", results[1].Err)
	}
	if !errors.Is(results[1].Err, context.Canceled) {
		t.Errorf("long lane err should wrap context.Canceled, got %v", results[1].Err)
	}
}

// TestRunMeteredLanePackUtilization checks a lane pack's busy time is
// counted once: one 64-lane pack on a two-worker runner is one job, so
// the pool is capped at one worker and utilization stays within (0, 1].
// A per-scenario batch keeps the plain per-run sum.
func TestRunMeteredLanePackUtilization(t *testing.T) {
	scs := make([]Scenario, lane.MaxLanes)
	for i := range scs {
		scs[i] = laneScenario(fmt.Sprintf("u%02d", i), int64(i))
	}
	results, batch := NewRunner(2).RunMetered(context.Background(), scs)
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if results[0].Lanes != lane.MaxLanes {
		t.Fatalf("pack occupancy %d, want %d", results[0].Lanes, lane.MaxLanes)
	}
	if batch.Workers != 1 {
		t.Errorf("workers=%d, want 1 (one pack is one job)", batch.Workers)
	}
	if batch.Utilization <= 0 || batch.Utilization > 1 {
		t.Errorf("utilization=%v outside (0, 1]: busy %v in a %v batch", batch.Utilization, batch.Busy, batch.Wall)
	}
	if d := results[0].Metrics.Run - batch.Busy; d < 0 || d >= lane.MaxLanes {
		t.Errorf("busy %v, want the pack's run time %v once", batch.Busy, results[0].Metrics.Run)
	}

	for i := range scs[:4] {
		scs[i].Backend = exec.NameCompiled
	}
	results, batch = NewRunner(2).RunMetered(context.Background(), scs[:4])
	runs := make([]metrics.RunMetrics, len(results))
	for i := range results {
		runs[i] = results[i].Metrics
	}
	if want := metrics.Aggregate(runs, 0, 2, batch.Wall); !reflect.DeepEqual(batch, want) {
		t.Errorf("per-scenario batch metrics changed:\n got %+v\nwant %+v", batch, want)
	}
}
