// Package engine is the batch run layer on top of internal/core: it turns
// the paper's methodology — many runs of the same instrumented model under
// varying configuration, workload, analyzer style and technology — into a
// first-class operation. A Scenario describes one self-contained run, a
// Runner executes batches of scenarios across a worker pool (each scenario
// gets its own kernel and system, so runs are fully isolated), and Results
// come back in scenario order regardless of completion order, so parallel
// sweeps are byte-for-byte reproducible against serial ones.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
	"ahbpower/internal/exec"
	"ahbpower/internal/fault"
	"ahbpower/internal/metrics"
	"ahbpower/internal/power"
	"ahbpower/internal/tlm"
	"ahbpower/internal/topo"
	"ahbpower/internal/workload"
)

// Scenario is one self-contained simulation: system shape, traffic,
// analyzer integration style and run length. The zero value of System and
// Cycles are invalid; use core.PaperSystem() and a positive cycle count.
type Scenario struct {
	// Name labels the scenario in results and reports.
	Name string
	// System is the count-based legacy description of the bus shape. It
	// remains fully supported — it canonicalizes into the same declarative
	// topology Topo carries — but new code should set Topo, which can also
	// express non-uniform address maps, per-slave wait mixes and
	// per-master workload hints. Ignored when Topo is non-nil.
	System core.SystemConfig
	// Topo, when non-nil, is the declarative topology to build (see
	// internal/topo). It takes precedence over System; both forms fold
	// into CanonicalKey through the same canonical encoding, so a
	// count-based scenario and its explicit topology twin share one cache
	// key.
	Topo *topo.Topology
	// Analyzer parameterizes the power analyzer attached to the run.
	Analyzer core.AnalyzerConfig
	// Workloads supplies per-master traffic configurations (missing
	// entries reuse the last one with a shifted seed). When empty, the
	// topology's workload hints apply, then the paper workload sized to
	// Cycles; core.ResolveWorkloads implements the rule for every path.
	Workloads []workload.Config
	// Cycles is the number of bus clock cycles to simulate.
	Cycles uint64
	// Setup, when non-nil, runs after the system is built and the analyzer
	// attached but before the simulation starts — the place to attach
	// extra observers (recorders, VCD writers) to the cycle stream.
	Setup func(*core.System) error
	// SkipAnalyzer runs the scenario without power instrumentation: no
	// analyzer is attached and Report/Stats/DPM stay nil. Used for
	// functional-only baselines (e.g. the instrumentation-overhead
	// experiment).
	SkipAnalyzer bool
	// Faults, when non-nil, is the deterministic fault-injection plan
	// compiled onto the system after the workload is loaded (see
	// internal/fault). Plans participate in CanonicalKey, so faulty runs
	// cache correctly.
	Faults *fault.Plan
	// Backend is an execution hint: "", "event", "compiled", "auto" or
	// "lanes" (see internal/exec). It selects how cycles are advanced,
	// never what they compute — results are bit-identical across backends
	// — so it is deliberately excluded from CanonicalKey and a cached
	// result answers the scenario regardless of the backend that produced
	// it. "event" pins the reference kernel. Every other accepted hint is
	// the same request: the compiled stepper, or the event kernel with the
	// reason surfaced in Result.BackendFallback when the scenario uses
	// features the compiled stepper cannot honor.
	Backend string
	// Accuracy selects the result-accuracy class: "" or "cycle" for the
	// exact cycle-accurate simulation (the default), "transaction" for
	// the calibrated transaction-level estimate (see internal/tlm). Unlike
	// Backend, accuracy changes what is computed — estimated results are
	// approximate by contract — so it participates in CanonicalKey and
	// cycle and transaction results never share a cache entry. A
	// transaction-accuracy scenario that uses features the estimator
	// cannot honor (active fault plans, Setup hooks, per-cycle traces, ...)
	// conservatively falls back to cycle accuracy, with the reason
	// surfaced in Result.BackendFallback.
	Accuracy string
	// Checkpoint, when non-nil, enables crash-safe periodic snapshots
	// and/or resume-from-snapshot for this scenario (see
	// CheckpointConfig). Like Backend it is an execution detail — a
	// resumed run is bit-identical to an uninterrupted one — so it is
	// excluded from CanonicalKey. Checkpointing needs per-scenario
	// kernel state, which the transaction-level estimator does not carry,
	// so checkpoint-requesting scenarios route to a cycle-accurate
	// backend with the reason surfaced.
	Checkpoint *CheckpointConfig
}

// Topology returns the canonical topology the scenario builds: Topo when
// set, else the canonicalized count-based System. This is the form
// CanonicalKey hashes and NewSystemTopo constructs.
func (sc *Scenario) Topology() topo.Topology {
	if sc.Topo != nil {
		return sc.Topo.Canonical()
	}
	return sc.System.Topology()
}

// Plan is how a scenario executes: its backend hint and accuracy request
// resolved against the exec capability table. A Plan never changes what a
// scenario computes on the cycle-accurate paths; it decides where and
// how the cycles are produced.
type Plan struct {
	// Path is the executor that runs the scenario: exec.NameEvent,
	// exec.NameCompiled or tlm.Name.
	Path string
	// Accuracy is the accuracy class Path delivers.
	Accuracy string
	// Checkpoint reports whether the scenario's CheckpointConfig is armed.
	Checkpoint bool
	// BackendFallback and CheckpointFallback are the surfaced reasons the
	// requested path or checkpointing was not taken (see Result).
	BackendFallback, CheckpointFallback string
}

// Plan resolves the scenario's execution path. A transaction-accuracy
// request takes the estimator unless a feature blocks it; otherwise
// exec.Select picks the cycle-accurate backend: the event kernel under an
// "event" hint, else the compiled stepper unless a feature blocks it.
// The reason a path was not taken is the first blocker in the capability
// table, prefixed "transaction accuracy: " for an accuracy fallback,
// which comes first. Checkpointing is armed unless blocked; resuming a
// scenario that cannot be checkpointed is an error, since restoring
// would silently drop state. A scenario with invalid analyzer constants
// (see core.AnalyzerConfig.Validate) gets no plan.
func (sc *Scenario) Plan() (Plan, error) {
	switch {
	case sc.Cycles == 0:
		return Plan{}, fmt.Errorf("engine: scenario %q: Cycles must be positive", sc.Name)
	case !ValidAccuracy(sc.Accuracy):
		return Plan{}, fmt.Errorf("engine: scenario %q: unknown accuracy %q (want %s|%s)",
			sc.Name, sc.Accuracy, AccuracyCycle, AccuracyTransaction)
	case !exec.ValidName(sc.Backend):
		return Plan{}, fmt.Errorf("engine: scenario %q: unknown backend %q (want %s|%s|%s|%s)",
			sc.Name, sc.Backend, exec.NameEvent, exec.NameCompiled, exec.NameAuto, exec.NameLanes)
	}
	if !sc.SkipAnalyzer {
		// The estimator never reaches core.Attach, so every path refuses
		// meaningless analyzer constants here.
		if err := sc.Analyzer.Validate(); err != nil {
			return Plan{}, fmt.Errorf("engine: scenario %q: %w", sc.Name, err)
		}
	}
	fs := sc.features()
	p := Plan{Accuracy: AccuracyCycle}
	if NormalizeAccuracy(sc.Accuracy) == AccuracyTransaction {
		reason := exec.Blocker(fs, exec.PathTLM)
		if reason == "" {
			return Plan{Path: tlm.Name, Accuracy: AccuracyTransaction}, nil
		}
		p.BackendFallback = "transaction accuracy: " + reason
	}
	backend, reason := exec.Select(fs, sc.Backend)
	p.Path = backend.Name()
	if p.BackendFallback == "" {
		p.BackendFallback = reason
	}
	if sc.Checkpoint != nil {
		p.CheckpointFallback = exec.Blocker(fs, exec.PathCheckpoint)
		p.Checkpoint = p.CheckpointFallback == ""
		if !p.Checkpoint && len(sc.Checkpoint.Resume) > 0 {
			return Plan{}, fmt.Errorf("engine: scenario %q: cannot resume from snapshot: %s", sc.Name, p.CheckpointFallback)
		}
	}
	return p, nil
}

// features derives the scenario's capability-table features.
func (sc *Scenario) features() exec.Feature {
	var fs exec.Feature
	flags := []struct {
		on bool
		f  exec.Feature
	}{
		{sc.Setup != nil, exec.FeatureSetup},
		{sc.Faults.Active(), exec.FeatureActiveFaults},
		{sc.SkipAnalyzer, exec.FeatureNoAnalyzer},
		{sc.Checkpoint != nil, exec.FeatureCheckpoint},
	}
	for _, fl := range flags {
		if fl.on {
			fs |= fl.f
		}
	}
	if !sc.SkipAnalyzer {
		fs |= exec.AnalyzerFeatures(sc.Analyzer)
	}
	return fs
}

// Result is the outcome of one scenario. On success Report and the
// summary fields are populated (Report/Stats/DPM stay nil under
// Scenario.SkipAnalyzer); on failure only Err (and Index/Scenario) are.
type Result struct {
	// Index is the scenario's position in the submitted batch; results are
	// returned sorted by it.
	Index int
	// Scenario echoes the input.
	Scenario Scenario
	// Report is the full analysis outcome.
	Report *core.Report
	// Stats is the per-instruction energy table of the run's power FSM,
	// sorted by descending energy.
	Stats []power.InstructionStat
	// Beats is the total number of data beats transferred by the active
	// masters.
	Beats uint64
	// Counts is the protocol monitor's event counters (transfers, waits,
	// handovers, ...).
	Counts map[string]uint64
	// Violations holds protocol errors detected by the monitor. A
	// violation does not set Err; sweeps decide how to treat it.
	Violations []ahb.ProtocolError
	// DPM is the dynamic-power-management estimate, when enabled.
	DPM *core.DPMEstimate
	// Metrics are the run's engine-level performance figures: cycles
	// simulated, build and run wall times and the resulting throughput.
	// Populated on success.
	Metrics metrics.RunMetrics
	// Attempts is 1 for every executed scenario (each runs exactly once)
	// and 0 for one abandoned before starting.
	Attempts int
	// Backend is the execution path that actually ran the scenario, the
	// plan's Path ("event", "compiled" or "tlm"). Empty for
	// scenarios that never reached execution. An execution detail, not
	// part of the result identity: supported scenarios produce
	// bit-identical results on every cycle-accurate backend.
	Backend string
	// BackendFallback is the surfaced reason a transaction-accuracy
	// request conservatively ran cycle-accurate (prefixed "transaction
	// accuracy:"), or else the reason the event kernel ran a scenario
	// that did not pin it; empty when no fallback happened.
	BackendFallback string
	// Accuracy is the accuracy class that actually produced the result:
	// AccuracyCycle for the exact paths (including conservative fallbacks
	// from a transaction request), AccuracyTransaction for estimates.
	Accuracy string
	// Lanes was the occupancy of the lane pack that executed the
	// scenario. The lane backend is retired and nothing sets it, so it
	// reads 0; it stays only because the benchmark module still reads it.
	Lanes int
	// CheckpointFallback is the surfaced reason checkpointing was
	// requested but the scenario ran without it (Setup hook, streaming
	// analyzer consumers); empty when checkpointing ran or was never
	// requested.
	CheckpointFallback string
	// ResumedFrom is the absolute cycle the scenario resumed from when a
	// Checkpoint.Resume snapshot was restored; zero for fresh runs.
	ResumedFrom uint64
	// Faults holds the injector's per-kind counters when the scenario
	// carried an active fault plan.
	Faults *fault.Stats
	// Err captures any failure: construction, workload generation, attach,
	// simulation, or a panic inside the scenario. A Runner batch reports
	// exactly the error RunOne would; scenarios abandoned before starting
	// carry the raw context error. One failed scenario never aborts the
	// rest of a batch.
	Err error
}

// PJPerBeat returns the total energy per transferred beat in picojoules,
// or 0 when nothing moved.
func (r *Result) PJPerBeat() float64 {
	if r.Report == nil || r.Beats == 0 {
		return 0
	}
	return r.Report.TotalEnergy / float64(r.Beats) * 1e12
}

// Runner executes scenario batches over a fixed-size worker pool.
type Runner struct {
	// Workers is the pool size; NewRunner clamps it to at least 1.
	Workers int
	// OnStart, when non-nil, is invoked from a worker goroutine just
	// before a scenario begins executing, with its batch index. Hooks
	// must be safe for concurrent use; queue consumers (the serving
	// layer's job progress) use them to observe a batch mid-flight.
	OnStart func(index int)
	// OnDone, when non-nil, is invoked from a worker goroutine as each
	// scenario finishes, with its completed Result — including failed and
	// cancelled ones. Scenarios abandoned before starting (batch
	// cancellation) do not trigger it.
	OnDone func(Result)
}

// NewRunner returns a runner with the given pool size (minimum 1).
func NewRunner(workers int) *Runner {
	if workers < 1 {
		workers = 1
	}
	return &Runner{Workers: workers}
}

// DefaultRunner returns a runner sized to the machine. The pool follows
// runtime.GOMAXPROCS(0), not runtime.NumCPU(): under a container CPU
// quota (or an explicit GOMAXPROCS) the scheduler only runs that many
// goroutines in parallel, and sizing the pool to the raw core count
// would oversubscribe a quota-limited pod.
func DefaultRunner() *Runner { return NewRunner(runtime.GOMAXPROCS(0)) }

// Run executes every scenario and returns one Result per scenario, in
// input order. Each scenario is built and simulated in isolation (own
// kernel, bus, masters, slaves, analyzer), so scenarios run concurrently
// without shared state; per-scenario failures are captured in Result.Err
// and never abort the batch. When ctx is cancelled, scenarios not yet
// started are abandoned promptly with Err = ctx.Err(), and scenarios
// already running stop mid-simulation with the same error (see
// core.System.RunContext).
func (r *Runner) Run(ctx context.Context, scenarios []Scenario) []Result {
	results, _ := r.run(ctx, scenarios)
	return results
}

// run is Run, also returning the effective pool size: the configured
// workers capped at the number of scenarios.
func (r *Runner) run(ctx context.Context, scenarios []Scenario) ([]Result, int) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(scenarios))
	executed := make([]bool, len(scenarios))
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := r.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if r.OnStart != nil {
					r.OnStart(i)
				}
				results[i] = execute(ctx, i, scenarios[i])
				executed[i] = true
				if r.OnDone != nil {
					r.OnDone(results[i])
				}
			}
		}()
	}
	// Feed jobs until done or cancelled; abandoned scenarios are marked
	// below, after the channel closes.
feed:
	for i := range scenarios {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for i := range results {
			if !executed[i] {
				results[i] = Result{Index: i, Scenario: scenarios[i], Err: err}
			}
		}
	}
	for i := range results {
		results[i].Index = i
	}
	return results, workers
}

// RunMetered executes a batch like Run and additionally aggregates
// engine-level batch metrics: total cycles, throughput, per-scenario
// latency and worker utilization.
func (r *Runner) RunMetered(ctx context.Context, scenarios []Scenario) ([]Result, metrics.BatchMetrics) {
	start := time.Now()
	results, workers := r.run(ctx, scenarios)
	wall := time.Since(start)
	runs := make([]metrics.RunMetrics, 0, len(results))
	failed := 0
	for i := range results {
		if results[i].Err != nil {
			failed++
			continue
		}
		runs = append(runs, results[i].Metrics)
	}
	return results, metrics.Aggregate(runs, failed, workers, wall)
}

// Run executes a batch with a machine-sized worker pool.
func Run(ctx context.Context, scenarios []Scenario) []Result {
	return DefaultRunner().Run(ctx, scenarios)
}

// RunOne executes a single scenario synchronously.
func RunOne(ctx context.Context, sc Scenario) Result {
	return execute(ctx, 0, sc)
}

// execute builds and runs one scenario exactly once, capturing any
// failure — including a panic anywhere in the model stack — in
// Result.Err. It plans the scenario once and dispatches on the plan's
// path; ctx is the one deadline on every path.
func execute(ctx context.Context, index int, sc Scenario) (res Result) {
	res = Result{Index: index, Scenario: sc}
	defer func() {
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("engine: scenario %q panicked: %v", sc.Name, p)
		}
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	res.Attempts = 1
	plan, err := sc.Plan()
	if err != nil {
		res.Err = err
		return res
	}
	res.Backend, res.Accuracy = plan.Path, plan.Accuracy
	res.BackendFallback, res.CheckpointFallback = plan.BackendFallback, plan.CheckpointFallback
	if plan.Path == tlm.Name {
		estimate(ctx, &res)
	} else {
		simulate(ctx, &res, plan)
	}
	return res
}

// simulate builds res.Scenario and runs it on the cycle-accurate backend
// the plan chose, with snapshots when the plan armed them.
func simulate(ctx context.Context, res *Result, plan Plan) {
	sc := &res.Scenario
	fail := func(err error) { res.Err = fmt.Errorf("engine: scenario %q: %w", sc.Name, err) }
	backend := exec.Event()
	if plan.Path == exec.NameCompiled {
		backend = exec.Compiled()
	}
	buildStart := time.Now()
	var sys *core.System
	var err error
	if sc.Topo != nil {
		sys, err = core.NewSystemTopo(*sc.Topo)
	} else {
		sys, err = core.NewSystem(sc.System)
	}
	if err != nil {
		fail(err)
		return
	}
	cfgs, err := core.ResolveWorkloads(&sys.Topo, sc.Workloads, sc.Cycles)
	if err == nil {
		err = sys.LoadWorkload(cfgs...)
	}
	if err != nil {
		fail(err)
		return
	}
	var an *core.Analyzer
	if !sc.SkipAnalyzer {
		if an, err = core.Attach(sys, sc.Analyzer); err != nil {
			fail(err)
			return
		}
	}
	if sc.Setup != nil {
		if err := sc.Setup(sys); err != nil {
			fail(fmt.Errorf("setup: %w", err))
			return
		}
	}
	var inj *fault.Injector
	if sc.Faults.Active() {
		if inj, err = fault.Attach(sys.Bus, sys.Masters, sc.Faults); err != nil {
			fail(err)
			return
		}
	}
	run := sc.Cycles
	if plan.Checkpoint {
		// Register the extra snapshot participants. Registration happens on
		// both the capture and the resume side, so the snapshot's component
		// sets always match.
		if an != nil {
			sys.AddSnapshotter("analyzer", an)
		}
		if inj != nil {
			sys.AddSnapshotter("faults", inj)
		}
		ckpt := sc.Checkpoint
		if len(ckpt.Resume) > 0 {
			snap, err := core.DecodeSnapshot(ckpt.Resume)
			if err != nil {
				fail(err)
				return
			}
			if snap.Cycle == 0 || snap.Cycle >= sc.Cycles {
				fail(fmt.Errorf("snapshot at cycle %d cannot resume a %d-cycle run", snap.Cycle, sc.Cycles))
				return
			}
			if err := sys.RestoreSnapshot(snap); err != nil {
				fail(err)
				return
			}
			res.ResumedFrom = snap.Cycle
			run = sc.Cycles - snap.Cycle
		}
		if ckpt.Save != nil {
			save := ckpt.Save
			sys.SetCheckpointHook(ckpt.Every, func(uint64) error {
				snap, err := sys.CaptureSnapshot()
				if err != nil {
					return err
				}
				blob, err := snap.Encode()
				if err != nil {
					return err
				}
				return save(snap.Cycle, blob)
			})
		}
	}
	build := time.Since(buildStart)
	start := time.Now()
	if err := backend.Run(ctx, sys, run); err != nil {
		fail(err)
		return
	}
	res.Metrics = metrics.NewRunMetrics(sys.Bus.Cycles(), build, time.Since(start))
	if an != nil {
		res.Report = an.Report()
		res.Stats = an.FSM().Stats()
		res.DPM = an.DPM()
	}
	res.Violations = sys.Monitor.Errors()
	res.Counts = sys.Monitor.Counts()
	for _, m := range sys.Masters {
		res.Beats += m.Stats().Beats
	}
	if inj != nil {
		st := inj.Stats()
		res.Faults = &st
	}
}

// FirstError returns the first scenario error in a batch, annotated with
// the scenario name, or nil when every scenario succeeded.
func FirstError(results []Result) error {
	for i := range results {
		if results[i].Err != nil {
			return results[i].Err
		}
	}
	return nil
}

// FirstViolation returns the first protocol violation across a batch, or
// nil when the runs were clean.
func FirstViolation(results []Result) error {
	for i := range results {
		if len(results[i].Violations) > 0 {
			return fmt.Errorf("engine: scenario %q: %d protocol violations (first: %v)",
				results[i].Scenario.Name, len(results[i].Violations), results[i].Violations[0])
		}
	}
	return nil
}
