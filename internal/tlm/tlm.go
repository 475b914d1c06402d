// Package tlm is the transaction-level fast path: it estimates the energy
// of a scenario from whole bursts/transactions instead of stepping every
// HCLK cycle, trading exactness for an order of magnitude of throughput.
//
// The estimator is a calibrated hybrid, after the TLM methodology of
// "Fast and Accurate Transaction Level Modeling of an Extended AMBA2.0
// Bus Architecture" (PAPERS.md):
//
//  1. a short cycle-accurate calibration prefix (1/16 of the run, clamped
//     to [512, 8192] cycles) executes on the exact kernel and measures the
//     true per-block energies of the workload's stationary mix;
//  2. a transaction-granularity walk over the generated workload scripts
//     counts power-FSM instructions for the full run without simulating
//     the bus — each burst beat contributes its (1 + wait-states) transfer
//     cycles, inter-sequence idle gaps and the post-script tail classify
//     as IDLE_HO exactly like the analyzer's classifier, and ownership
//     changes insert one handover cycle;
//  3. analytic expected per-instruction energies, derived from the fitted
//     macromodel coefficients and the workload's data-pattern mix, turn
//     the instruction counts into per-block energies; and
//  4. per-block calibration factors (measured prefix energy over
//     walk-estimated prefix energy) rescale the analytic expectations so
//     any stationary modeling bias — including arbitration effects the
//     preemption-free walk does not replay — cancels out. The post-script
//     dead tail is the exception: a drained bus has no switching for the
//     prefix to correct, so tail idle cycles keep the exact analytic
//     clock-plus-idle-arbitration price instead of a busy-region factor.
//
// The contract is therefore approximate-by-construction: when the
// workload mix is stationary the residual error is the prefix sampling
// noise, measured (not assumed) by tools/tlmcheck and gated in CI against
// the budget recorded in EXPERIMENTS.md. When the run is no longer than
// the calibration prefix the estimate degenerates to the measured
// cycle-accurate result. Results are deterministic: the same Spec always
// yields the same Outcome, so TLM results are cacheable — under their own
// CanonicalKey accuracy class, never the cycle-accurate one.
package tlm

import (
	"context"
	"fmt"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
	"ahbpower/internal/exec"
	"ahbpower/internal/power"
	"ahbpower/internal/topo"
	"ahbpower/internal/workload"
)

// Name identifies the transaction-level estimator in results, metrics and
// logs, alongside the exec backend names.
const Name = "tlm"

// Calibration prefix sizing: prefixDivisor of the run is simulated
// cycle-accurately, clamped to [prefixMin, prefixMax] cycles. The divisor
// bounds the speedup from above (≈ prefixDivisor for long runs); the
// minimum keeps the measured mix statistically meaningful; the maximum
// bounds the absolute calibration cost of very long runs.
const (
	prefixDivisor = 16
	prefixMin     = 512
	prefixMax     = 8192
)

// Spec describes one estimation request — the projection of an
// engine.Scenario onto what the transaction-level estimator needs.
type Spec struct {
	// Name labels errors.
	Name string
	// Topo is the canonical topology to estimate; the prefix system is
	// built from it exactly like the cycle-accurate path.
	Topo topo.Topology
	// Analyzer configures the power analyzer of the calibration prefix and
	// supplies the macromodels (characterized Models or structural
	// defaults) the analytic expectations are derived from.
	Analyzer core.AnalyzerConfig
	// Workloads are the explicit per-master traffic configurations,
	// resolved by core.ResolveWorkloads like every other path's.
	Workloads []workload.Config
	// Cycles is the bus-cycle horizon of the estimate.
	Cycles uint64
}

// Outcome is the result of one estimation: the approximate analogs of the
// cycle-accurate Report/Stats plus the calibration telemetry that lets
// callers judge how much of the run was actually measured.
type Outcome struct {
	// Report is the estimated analysis outcome, structurally identical to
	// the cycle-accurate core.Report (shares, table, block breakdown).
	Report *core.Report
	// Stats is the estimated per-instruction energy table, sorted like
	// power.FSM.Stats (descending energy, then instruction name).
	Stats []power.InstructionStat
	// Beats is the estimated number of data beats within the horizon.
	Beats uint64
	// Counts are estimated protocol-event counters in the bus monitor's
	// key space (nonseq/seq/wait/handover/idle); only nonzero entries.
	Counts map[string]uint64
	// Cycles echoes the estimation horizon.
	Cycles uint64
	// CalibrationCycles is the length of the cycle-accurate prefix.
	CalibrationCycles uint64
	// CalibrationBackend is the exec backend that ran the prefix.
	CalibrationBackend string
	// CalibrationFactor is the overall measured/estimated energy ratio
	// over the prefix window (1 means the analytic expectations were
	// already exact for this mix).
	CalibrationFactor float64
}

// CalibrationPrefix returns the cycle-accurate prefix length for a run of
// the given horizon: cycles/prefixDivisor clamped to [prefixMin,
// prefixMax], and never longer than the run itself.
func CalibrationPrefix(cycles uint64) uint64 {
	p := cycles / prefixDivisor
	if p < prefixMin {
		p = prefixMin
	}
	if p > prefixMax {
		p = prefixMax
	}
	if p > cycles {
		p = cycles
	}
	return p
}

// Prepared is a Spec with its traffic resolved and scripts generated —
// the estimation-ready form. The generated scripts are shared read-only
// between the calibration prefix (the masters enqueue but never mutate
// them) and the transaction walk, so each spec pays workload generation
// exactly once, like the cycle-accurate path does.
type Prepared struct {
	spec    Spec
	ct      topo.Topology
	cfgs    []workload.Config
	scripts [][]ahb.Sequence
}

// Prepare validates a spec, resolves its traffic into one configuration
// per active master and generates the workload scripts. Preparation is
// the allocation-heavy half of an estimate; Estimate on the result runs
// the calibration prefix and the walk.
func Prepare(spec Spec) (*Prepared, error) {
	if spec.Cycles == 0 {
		return nil, fmt.Errorf("tlm: spec %q: Cycles must be positive", spec.Name)
	}
	ct := spec.Topo.Canonical()
	if err := topo.Check(ct); err != nil {
		return nil, fmt.Errorf("tlm: spec %q: %w", spec.Name, err)
	}
	cfgs, err := core.ResolveWorkloads(&ct, spec.Workloads, spec.Cycles)
	if err != nil {
		return nil, fmt.Errorf("tlm: spec %q: %w", spec.Name, err)
	}
	scripts := make([][]ahb.Sequence, 0, len(cfgs))
	for _, cfg := range cfgs {
		seqs, gerr := workload.Generate(cfg)
		if gerr != nil {
			return nil, fmt.Errorf("tlm: spec %q: %w", spec.Name, gerr)
		}
		scripts = append(scripts, seqs)
	}
	return &Prepared{spec: spec, ct: ct, cfgs: cfgs, scripts: scripts}, nil
}

// Estimate runs the calibrated transaction-level estimation for a
// prepared spec. The context cancels the cycle-accurate calibration
// prefix exactly like core.System.RunContext; the walk itself is not
// cancellable (it is a few milliseconds even for very long horizons).
func (p *Prepared) Estimate(ctx context.Context) (*Outcome, error) {
	prefix := CalibrationPrefix(p.spec.Cycles)
	measured, backendName, err := runPrefix(ctx, p.ct, p.spec.Analyzer, p.scripts, prefix)
	if err != nil {
		return nil, fmt.Errorf("tlm: spec %q: calibration prefix: %w", p.spec.Name, err)
	}

	exp, err := newExpecter(&p.ct, p.spec.Analyzer, p.cfgs)
	if err != nil {
		return nil, fmt.Errorf("tlm: spec %q: %w", p.spec.Name, err)
	}
	w := runWalk(&p.ct, p.scripts, p.spec.Cycles, prefix)
	cal := calibrate(exp, w, measured)

	rep, sts := cal.report(&p.ct, p.spec.Analyzer, w, p.spec.Cycles)
	return &Outcome{
		Report:             rep,
		Stats:              sts,
		Beats:              w.beats,
		Counts:             w.monitorCounts(),
		Cycles:             p.spec.Cycles,
		CalibrationCycles:  prefix,
		CalibrationBackend: backendName,
		CalibrationFactor:  cal.overall,
	}, nil
}

// Estimate prepares and estimates one spec in a single call.
func Estimate(ctx context.Context, spec Spec) (*Outcome, error) {
	p, err := Prepare(spec)
	if err != nil {
		return nil, err
	}
	return p.Estimate(ctx)
}

// measuredPrefix is what the calibration run yields: the true per-block
// energies and the total over the prefix window.
type measuredPrefix struct {
	block [power.NumBlocks]float64
	total float64
}

// runPrefix builds the scenario's system, enqueues the already-generated
// walk scripts (one per active master, the exact traffic LoadWorkload
// would have generated from the same configurations), attaches the
// analyzer and runs the cycle-accurate kernel for the prefix window.
func runPrefix(ctx context.Context, ct topo.Topology, az core.AnalyzerConfig,
	scripts [][]ahb.Sequence, prefix uint64) (measuredPrefix, string, error) {
	var m measuredPrefix
	sys, err := core.NewSystemTopo(ct)
	if err != nil {
		return m, "", err
	}
	if len(sys.Masters) != len(scripts) {
		return m, "", fmt.Errorf("tlm: %d active masters but %d scripts", len(sys.Masters), len(scripts))
	}
	for i, mm := range sys.Masters {
		mm.Enqueue(scripts[i]...)
	}
	an, err := core.Attach(sys, az)
	if err != nil {
		return m, "", err
	}
	backend := exec.Compiled()
	if exec.Blocker(exec.AnalyzerFeatures(az), exec.PathCompiled) != "" {
		backend = exec.Event()
	}
	if err := backend.Run(ctx, sys, prefix); err != nil {
		return m, backend.Name(), err
	}
	bd := an.Breakdown()
	for _, b := range power.Blocks() {
		m.block[b] = bd.Energy(b)
	}
	m.total = an.FSM().TotalEnergy()
	return m, backend.Name(), nil
}
