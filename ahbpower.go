// Package ahbpower is a system-level power-analysis library for the AMBA
// AHB on-chip bus, reproducing Caldari et al., "System-Level Power
// Analysis Methodology Applied to the AMBA AHB Bus" (DATE 2003).
//
// It bundles:
//
//   - a discrete-event simulation kernel with SystemC-like delta-cycle
//     semantics (internal/sim);
//   - a cycle-accurate AMBA AHB bus model — arbiter, decoder, M2S/S2M
//     multiplexers, script-driven masters, memory and FIFO slaves — plus
//     an APB tier behind a bridge (internal/amba), with ERROR, RETRY and
//     SPLIT responses forced onto memory slaves by fault plans
//     (internal/fault);
//   - parametric dynamic-energy macromodels for the AHB sub-blocks and
//     the instruction-based power FSM of the paper (internal/power);
//   - a gate-level netlist substrate with structural generators and SOP
//     synthesis used to characterize and validate the macromodels
//     (internal/gate, internal/synth, internal/charact);
//   - experiment runners regenerating every table and figure of the
//     paper's evaluation (internal/experiments).
//
// The typical flow mirrors the paper: build a system, attach a power
// analyzer in one of the three integration styles, run, and read the
// instruction-energy report:
//
//	sys, _ := ahbpower.NewSystem(ahbpower.PaperSystem())
//	sys.LoadPaperWorkload(50000)
//	an, _ := ahbpower.Attach(sys, ahbpower.WithStyle(ahbpower.StyleGlobal))
//	sys.Run(50000)
//	fmt.Print(an.Report().FormatTable())
//
// Attach takes functional options (WithStyle, WithTech, WithModels,
// WithTrace, ...); AttachConfig remains the struct-literal form for
// callers that build an AnalyzerConfig programmatically. For
// time-resolved output, attach a streaming power-trace recorder
// (NewTrace + WithTrace) and export the waveform as CSV, JSON lines or
// analog VCD — see the "metrics" facade in metrics.go and
// examples/powertrace.
//
// Gate-level characterization is configured with CharacterizationConfig
// and run with Characterize.
package ahbpower

import (
	"io"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/charact"
	"ahbpower/internal/core"
	"ahbpower/internal/power"
	"ahbpower/internal/sim"
	"ahbpower/internal/workload"
)

// Core system and analysis types.
type (
	// SystemConfig describes an AHB system under power analysis.
	SystemConfig = core.SystemConfig
	// System is a fully built simulation (kernel, bus, masters, slaves).
	System = core.System
	// AnalyzerConfig parameterizes the power analyzer.
	AnalyzerConfig = core.AnalyzerConfig
	// Analyzer is the instrumented power model attached to a system.
	Analyzer = core.Analyzer
	// Report is the outcome of one analyzed simulation.
	Report = core.Report
	// Style selects the power-model integration style (paper Fig. 1).
	Style = core.Style
	// Tech holds the technology constants of the energy models.
	Tech = power.Tech
	// Models bundles the four sub-block macromodels of one bus shape; a
	// serialized Models file is the reusable power model of the IP.
	Models = power.Models
)

// Bus-level types for custom systems.
type (
	// BusConfig configures a raw AHB bus instance.
	BusConfig = ahb.Config
	// Bus is the AHB interconnect.
	Bus = ahb.Bus
	// Master is an AHB master driven by the sequences it is given with
	// Enqueue or pulls from a streamed traffic source.
	Master = ahb.Master
	// Op is one master operation (write burst, read burst or idle).
	Op = ahb.Op
	// Sequence is a non-interruptible run of operations.
	Sequence = ahb.Sequence
	// Region maps an address range to a slave.
	Region = ahb.Region
	// WorkloadConfig parameterizes random testbench traffic.
	WorkloadConfig = workload.Config
	// Time is simulated time in picoseconds.
	Time = sim.Time
)

// Power-model integration styles (paper Fig. 1).
const (
	StyleGlobal  = core.StyleGlobal
	StyleLocal   = core.StyleLocal
	StylePrivate = core.StylePrivate
)

// Common time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// NewSystem builds a system from the configuration.
func NewSystem(cfg SystemConfig) (*System, error) { return core.NewSystem(cfg) }

// PaperSystem returns the paper's testbench configuration: two masters, a
// simple default master and three slaves on a 100 MHz AHB.
func PaperSystem() SystemConfig { return core.PaperSystem() }

// DefaultTech returns the calibrated default technology constants.
func DefaultTech() Tech { return power.DefaultTech() }

// FormatEnergy renders an energy in joules with a sensible SI prefix.
func FormatEnergy(j float64) string { return core.FormatEnergy(j) }

// FormatPower renders a power in watts with a sensible SI prefix.
func FormatPower(w float64) string { return core.FormatPower(w) }

// GenerateWorkload produces a master script from a workload configuration.
func GenerateWorkload(cfg WorkloadConfig) ([]Sequence, error) { return workload.Generate(cfg) }

// PaperWorkload returns the paper-testbench workload configuration for
// master m with the given number of WRITE-READ sequences.
func PaperWorkload(m, numSequences int) WorkloadConfig {
	return workload.PaperTestbench(m, numSequences)
}

// CharacterizationConfig parameterizes a gate-level bus
// characterization: bus shape, stimulus size, seed and technology. Zero
// values of DataWidth, Vectors and Tech pick sensible defaults.
type CharacterizationConfig = charact.Config

// Characterize characterizes the sub-blocks of a bus shape at gate level
// and returns a fitted, serializable model set (save with SaveModels,
// reuse with LoadModels and the WithModels attach option).
func Characterize(cfg CharacterizationConfig) (*Models, error) {
	return charact.Characterize(cfg)
}

// SaveModels writes a model set as JSON.
func SaveModels(w io.Writer, m *Models) error { return power.SaveModels(w, m) }

// LoadModels reads a model set written by SaveModels.
func LoadModels(r io.Reader) (*Models, error) { return power.LoadModels(r) }
