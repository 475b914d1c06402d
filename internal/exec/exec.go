// Package exec is the execution-backend seam between model construction
// and simulation. A built core.System does not care how its cycles are
// advanced; a Backend supplies that policy. Two backends advance a built
// system:
//
//   - "event": the reference discrete-event kernel (internal/sim event
//     heap, delta cycles, sensitivity-driven scheduling). Always
//     available, always exact.
//   - "compiled": a Verilator-style straight-line stepper that executes
//     a static per-cycle schedule (posedge processes in registration
//     order, then topologically ordered combinational waves) with no
//     event heap and no sensitivity bookkeeping. Bit-identical to the
//     event backend for every scenario it supports, several times
//     faster, and restricted to static topologies without delta-level
//     instrumentation.
//
// Two more paths execute scenarios without advancing a core.System: the
// bit-parallel lane packs ("lanes", internal/lane) and the
// transaction-level estimator (internal/tlm). Which of the four paths —
// and whether checkpointing — can honour a scenario is one decision,
// recorded once in this package's capability table (see Feature and
// Blocker) and resolved by engine.(*Scenario).Plan.
//
// Results are byte-identical across the cycle-accurate paths for
// supported scenarios — the golden equivalence suites and the backend
// fuzzers enforce it — which is why a backend hint is an execution
// detail and deliberately excluded from engine.Scenario.CanonicalKey: a
// cached result answers a scenario regardless of which backend computed
// it.
package exec

import (
	"context"
	"fmt"

	"ahbpower/internal/core"
)

// Backend names accepted as scenario hints and by the -backend CLI flags.
const (
	// NameEvent selects the reference event-driven kernel.
	NameEvent = "event"
	// NameCompiled selects the straight-line compiled stepper, falling
	// back to the event backend (with a surfaced reason) for scenarios it
	// cannot honor.
	NameCompiled = "compiled"
	// NameAuto selects the compiled backend whenever the scenario supports
	// it and the event backend otherwise; the fallback reason is surfaced
	// the same way as for an explicit compiled request.
	NameAuto = "auto"
	// NameLanes selects the bit-parallel lane backend (internal/lane):
	// lanes execute whole packs of scenarios, not a single built system,
	// so the engine's runner schedules them.
	NameLanes = "lanes"
)

// Backend advances a built system by a number of bus clock cycles. A
// Backend must preserve the execution contract the event kernel defines:
// settled-timestep observers fire once per cycle in registration order,
// cancellation stops at a cycle-slice boundary with the system resumable,
// and every supported scenario produces results bit-identical to the
// event backend's.
type Backend interface {
	// Name identifies the backend in results, metrics and logs.
	Name() string
	// Run advances sys by cycles bus cycles, honoring ctx cancellation
	// exactly like core.System.RunContext. A system must be driven by a
	// single backend for its whole lifetime.
	Run(ctx context.Context, sys *core.System, cycles uint64) error
}

// Feature is a bit set of the scenario properties that decide which
// execution paths can honour a scenario. The engine derives it from a
// Scenario before anything is built.
type Feature uint16

// The features, in capability-table order: when several features block
// a path, the earliest one names the fallback reason.
const (
	FeatureSetup         Feature = 1 << iota // custom Setup hook
	FeatureTimeout                           // per-scenario wall-clock timeout
	FeatureActiveFaults                      // a fault plan with active rules
	FeatureNoAnalyzer                        // SkipAnalyzer: no power instrumentation
	FeatureDPM                               // DPM estimator attached
	FeaturePrivateStyle                      // private-style (per-delta) instrumentation
	FeatureTraceRecorder                     // streaming metrics.Trace subscriber
	FeatureCheckpoint                        // checkpoint/resume requested
)

// Path is a bit set of the execution paths a feature can rule out. The
// event kernel honours every feature and has no bit; checkpointing is not
// a path of its own but is gated the same way.
type Path uint8

const (
	PathCompiled   Path = 1 << iota // the straight-line compiled stepper
	PathLanes                       // bit-parallel lane packs
	PathTLM                         // the transaction-level estimator
	PathCheckpoint                  // periodic snapshots and resume
)

// capabilities is the single feature × path eligibility table: each row
// names the paths a feature rules out and the reason surfaced when it
// does.
var capabilities = [...]struct {
	feature Feature
	blocks  Path
	reason  string
}{
	// Arbitrary construction-time code may register processes or state
	// no static schedule, lane interpreter, estimator or snapshot sees.
	{FeatureSetup, PathCompiled | PathLanes | PathTLM | PathCheckpoint, "custom Setup hook"},
	// Pack members share one execution and cannot be timed out singly.
	{FeatureTimeout, PathLanes, "per-scenario timeout"},
	// Injectors hook the kernel's signal fabric cycle by cycle. A plan
	// without rules injects nothing and is no feature.
	{FeatureActiveFaults, PathLanes | PathTLM, "active fault-injection plan"},
	// With no analyzer there is no energy to estimate.
	{FeatureNoAnalyzer, PathTLM, "no analyzer attached, nothing to estimate"},
	// The lane and estimator analyzers have no DPM estimator.
	{FeatureDPM, PathLanes | PathTLM, "DPM estimator attached"},
	// Per-delta glitch counting needs the event kernel's delta cycles.
	{FeaturePrivateStyle, PathCompiled | PathLanes, "delta-level (private-style) instrumentation"},
	// A streaming consumer needs per-cycle samples and holds unserialized
	// mid-run state.
	{FeatureTraceRecorder, PathLanes | PathTLM | PathCheckpoint, "streaming trace recorder attached"},
	// Packs and estimates carry no per-scenario kernel state to snapshot.
	{FeatureCheckpoint, PathLanes | PathTLM, "checkpointing requested"},
}

// Blocker returns the reason of the first feature in fs, in table order,
// that rules out path p, or "" when p can honour every feature in fs.
func Blocker(fs Feature, p Path) string {
	for _, row := range capabilities {
		if fs&row.feature != 0 && p&row.blocks != 0 {
			return row.reason
		}
	}
	return ""
}

// AnalyzerFeatures returns the features an attached analyzer with this
// configuration contributes.
func AnalyzerFeatures(cfg core.AnalyzerConfig) Feature {
	var fs Feature
	if cfg.DPM != nil {
		fs |= FeatureDPM
	}
	if cfg.Style == core.StylePrivate {
		fs |= FeaturePrivateStyle
	}
	if cfg.Trace != nil {
		fs |= FeatureTraceRecorder
	}
	return fs
}

// Event returns the reference event-driven backend.
func Event() Backend { return eventBackend{} }

// Compiled returns the straight-line compiled backend. Callers are
// expected to consult Blocker with PathCompiled first; Run fails (rather
// than silently degrading) when the built system violates the
// flat-execution contract.
func Compiled() Backend { return compiledBackend{} }

type eventBackend struct{}

func (eventBackend) Name() string { return NameEvent }

func (eventBackend) Run(ctx context.Context, sys *core.System, cycles uint64) error {
	return sys.RunContext(ctx, cycles)
}

type compiledBackend struct{}

func (compiledBackend) Name() string { return NameCompiled }

func (compiledBackend) Run(ctx context.Context, sys *core.System, cycles uint64) error {
	flat, err := sys.Bus.NewFlat()
	if err != nil {
		return fmt.Errorf("exec: compiled backend: %w", err)
	}
	return sys.RunContextStepped(ctx, cycles, flat.RunCycles)
}

// ValidName reports whether name is an accepted backend hint. The empty
// string is valid and means the default (event) backend.
func ValidName(name string) bool {
	switch name {
	case "", NameEvent, NameCompiled, NameAuto, NameLanes:
		return true
	}
	return false
}
