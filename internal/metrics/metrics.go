// Package metrics is the streaming observability layer of the power
// simulator: it turns the per-cycle energy stream the analyzer computes
// into time-resolved artifacts — windowed power waveforms, per-sub-block
// and per-instruction energy time series — and into engine-level run
// metrics (latency, cycles/sec throughput, worker utilization). Both the
// power-emulation literature (Coburn et al.) and SystemC DPM studies
// (Conti et al.) show that time-resolved waveforms, not just end-of-run
// totals, are what make a bus power model usable for dynamic power
// management and architecture exploration.
//
// The layer is built on the probe/observer architecture of the
// simulation core: the analyzer publishes one Sample per settled bus
// cycle through a typed hub, and a Trace subscribes to that stream like
// any other observer. Nothing is published when no observer is attached,
// so a detached recorder costs zero simulation time.
package metrics

import (
	"fmt"
	"math"
	"math/bits"

	"ahbpower/internal/power"
	"ahbpower/internal/sim"
	"ahbpower/internal/stats"
)

// Sample is one settled bus cycle's energy decomposition, published by
// the power analyzer after it has classified the cycle and evaluated the
// sub-block macromodels. ETotal is exactly the energy the analyzer's
// power FSM accumulates for the cycle, so any consumer summing ETotal in
// stream order reproduces the report's total energy bit for bit.
type Sample struct {
	// Cycle is the bus cycle number (1-based).
	Cycle uint64
	// Time is the simulated time of the settled cycle.
	Time sim.Time
	// State is the activity mode the cycle was classified into.
	State power.State
	// Per-sub-block energies of the cycle, joules.
	EM2S, EDEC, EARB, ES2M float64
	// ETotal is the cycle's total energy, joules.
	ETotal float64
}

// TraceConfig parameterizes a Trace recorder.
type TraceConfig struct {
	// Window is the waveform window duration in seconds (required > 0).
	// Each window accumulates the energy of the cycles falling into it
	// and is emitted as one power point P = E/Window.
	Window float64
	// PerBlock additionally records per-sub-block energy per window (the
	// paper's Figs. 4-5 decomposition, time-resolved).
	PerBlock bool
	// PerInstruction additionally records per-instruction energy per
	// window: the energy of each power-FSM transition executed inside
	// the window.
	PerInstruction bool
}

// Window is one finished waveform window.
type Window struct {
	// Start and End bound the window, in simulated seconds.
	Start, End float64
	// Cycles is the number of bus cycles observed inside the window.
	Cycles uint64
	// Energy is the energy deposited inside the window, joules.
	Energy float64
	// CumEnergy is the trace's running total energy at the window's
	// close. It is accumulated sample by sample in stream order — the
	// same float path as the analyzer report's total — so the last
	// window's CumEnergy equals Report.TotalEnergy exactly.
	CumEnergy float64
	// Power is the window's mean power, Energy/(End-Start), watts.
	Power float64
	// Block holds per-sub-block window energy, joules (PerBlock only).
	Block [power.NumBlocks]float64
	// Instr maps instruction name to window energy, joules
	// (PerInstruction only; instructions not yet executed by the run are
	// omitted, already-seen ones appear with 0).
	Instr map[string]float64
}

// Trace is a streaming per-cycle power/energy recorder. Attach it to an
// analyzer's sample stream (core.AnalyzerConfig.Trace, the root
// WithTrace option, or Analyzer.ObserveSamples), run the simulation, and
// read the windows, series and summary statistics afterwards.
//
// A Trace is single-run: the first read accessor finalizes the
// in-progress window, after which further observed cycles are dropped
// and recorded as a sticky error (returned by Finish, Err and every
// exporter). Use one Trace per simulation.
type Trace struct {
	cfg      TraceConfig
	started  bool
	finished bool
	// err is the sticky misuse error: set the first time a cycle arrives
	// after finalization and never cleared. A mis-attached observer in a
	// long-lived process must not kill it, so the condition is reported
	// from Finish/the exporters instead of panicking; the offending
	// samples are dropped and every accumulator keeps its finalized value.
	err error

	// Current-window accumulators. Per-instruction energy is indexed by
	// From*NumStates+To — a flat array instead of a map, so the per-cycle
	// accumulation is two array writes; instrSeen tracks which
	// instructions have executed so far.
	winStart  float64
	winEnergy float64
	winCycles uint64
	winBlock  [power.NumBlocks]float64
	winInstr  [power.NumStates * power.NumStates]float64
	instrSeen uint32

	// Whole-run accumulators. cum is the running total energy, added in
	// stream order — the exact float path of the analyzer's power FSM.
	cum    float64
	cycles uint64

	prevState power.State
	haveState bool

	windows     []Window
	total       *stats.Series
	blockSeries [power.NumBlocks]*stats.Series
	instrSeries map[power.Instruction]*stats.Series
	online      stats.Online
}

// TraceStats summarizes a trace.
type TraceStats struct {
	// Cycles is the number of observed bus cycles.
	Cycles uint64
	// Windows is the number of finished waveform windows.
	Windows int
	// Energy is the total recorded energy, joules — bit-identical to the
	// analyzer report's TotalEnergy.
	Energy float64
	// MeanPower, PeakPower and RMSPower summarize the windowed power
	// waveform, watts (computed online; no samples are retained for
	// them).
	MeanPower, PeakPower, RMSPower float64
}

// NewTrace builds a trace recorder from the configuration.
func NewTrace(cfg TraceConfig) (*Trace, error) {
	if cfg.Window <= 0 || math.IsNaN(cfg.Window) || math.IsInf(cfg.Window, 0) {
		return nil, fmt.Errorf("metrics: TraceConfig.Window=%g, want positive and finite", cfg.Window)
	}
	t := &Trace{
		cfg:   cfg,
		total: &stats.Series{Name: "AHB total", XUnit: "time_s", YUnit: "power_W"},
	}
	if cfg.PerBlock {
		for _, b := range power.Blocks() {
			t.blockSeries[b] = &stats.Series{Name: b.String(), XUnit: "time_s", YUnit: "power_W"}
		}
	}
	if cfg.PerInstruction {
		t.instrSeries = map[power.Instruction]*stats.Series{}
	}
	return t, nil
}

// instrAt maps a flat winInstr index back to its instruction.
func instrAt(idx int) power.Instruction {
	return power.Instruction{
		From: power.State(idx / power.NumStates),
		To:   power.State(idx % power.NumStates),
	}
}

// instrNames caches the instruction name of every flat index so window
// flushes never rebuild the concatenated strings.
var instrNames = func() [power.NumStates * power.NumStates]string {
	var names [power.NumStates * power.NumStates]string
	for i := range names {
		names[i] = instrAt(i).String()
	}
	return names
}()

// Config returns the trace configuration.
func (t *Trace) Config() TraceConfig { return t.cfg }

// ObserveCycle implements the sample-stream observer: it deposits one
// cycle's energies into the current window, closing windows as simulated
// time crosses their boundaries. Samples must arrive in nondecreasing
// time order (the settled-cycle stream guarantees this).
func (t *Trace) ObserveCycle(s Sample) {
	if t.finished {
		if t.err == nil {
			t.err = fmt.Errorf("metrics: Trace observed cycle %d after finalization; use one Trace per run", s.Cycle)
		}
		return
	}
	tsec := s.Time.Seconds()
	if !t.started {
		t.started = true
		t.winStart = math.Floor(tsec/t.cfg.Window) * t.cfg.Window
	}
	for tsec >= t.winStart+t.cfg.Window {
		t.flush()
	}

	t.cycles++
	t.cum += s.ETotal
	t.winEnergy += s.ETotal
	t.winCycles++
	if t.cfg.PerBlock {
		t.winBlock[power.BlockM2S] += s.EM2S
		t.winBlock[power.BlockDEC] += s.EDEC
		t.winBlock[power.BlockARB] += s.EARB
		t.winBlock[power.BlockS2M] += s.ES2M
	}
	if t.cfg.PerInstruction {
		if t.haveState {
			idx := int(t.prevState)*power.NumStates + int(s.State)
			t.winInstr[idx] += s.ETotal
			t.instrSeen |= 1 << uint(idx)
		}
		t.prevState = s.State
		t.haveState = true
	}
}

// ObserveBatch implements probe.BatchObserver: it consumes a slice of
// in-order samples in one call, the delivery path used by the analyzer's
// batched sample stream.
func (t *Trace) ObserveBatch(recs []Sample) {
	for i := range recs {
		t.ObserveCycle(recs[i])
	}
}

// flush closes the current window and opens the next one.
func (t *Trace) flush() {
	end := t.winStart + t.cfg.Window
	mid := t.winStart + t.cfg.Window/2
	w := Window{
		Start:     t.winStart,
		End:       end,
		Cycles:    t.winCycles,
		Energy:    t.winEnergy,
		CumEnergy: t.cum,
		Power:     t.winEnergy / t.cfg.Window,
	}
	t.total.Add(mid, w.Power)
	t.online.Add(w.Power)
	if t.cfg.PerBlock {
		w.Block = t.winBlock
		for _, b := range power.Blocks() {
			t.blockSeries[b].Add(mid, t.winBlock[b]/t.cfg.Window)
			t.winBlock[b] = 0
		}
	}
	if t.cfg.PerInstruction && t.instrSeen != 0 {
		w.Instr = make(map[string]float64, bits.OnesCount32(t.instrSeen))
		for idx := range t.winInstr {
			if t.instrSeen&(1<<uint(idx)) == 0 {
				continue
			}
			in := instrAt(idx)
			e := t.winInstr[idx]
			w.Instr[instrNames[idx]] = e
			se := t.instrSeries[in]
			if se == nil {
				se = &stats.Series{Name: instrNames[idx], XUnit: "time_s", YUnit: "energy_J"}
				t.instrSeries[in] = se
			}
			se.Add(mid, e)
			t.winInstr[idx] = 0
		}
	}
	t.windows = append(t.windows, w)
	t.winStart = end
	t.winEnergy = 0
	t.winCycles = 0
}

// finalize closes the in-progress window (if any) and freezes the trace.
func (t *Trace) finalize() {
	if t.finished {
		return
	}
	t.finished = true
	if t.started {
		t.flush()
	}
}

// Finish finalizes the trace (closing the in-progress window) and
// returns the sticky misuse error, if any: non-nil when cycles were
// observed after an earlier finalization and dropped. Reading accessors
// never fail — the recorded data stays valid — but one-shot consumers
// (CLIs, exporters) should surface this error so a mis-attached observer
// is noticed.
func (t *Trace) Finish() error {
	t.finalize()
	return t.err
}

// Err returns the sticky misuse error without finalizing the trace.
func (t *Trace) Err() error { return t.err }

// Energy returns the total recorded energy, joules. It is accumulated
// sample by sample in stream order, so it matches the analyzer report's
// TotalEnergy bit for bit. Valid at any time, including mid-run.
func (t *Trace) Energy() float64 { return t.cum }

// Cycles returns the number of observed bus cycles.
func (t *Trace) Cycles() uint64 { return t.cycles }

// Windows finalizes the trace and returns every waveform window in time
// order.
func (t *Trace) Windows() []Window {
	t.finalize()
	return t.windows
}

// PowerSeries finalizes the trace and returns the total windowed power
// waveform (the paper's Fig. 3, streamed).
func (t *Trace) PowerSeries() *stats.Series {
	t.finalize()
	return t.total
}

// BlockPowerSeries finalizes the trace and returns the windowed power
// waveform of one sub-block, or nil when PerBlock was not enabled.
func (t *Trace) BlockPowerSeries(b power.Block) *stats.Series {
	t.finalize()
	if b >= power.NumBlocks {
		return nil
	}
	return t.blockSeries[b]
}

// InstructionSeries finalizes the trace and returns the windowed energy
// series of every instruction observed, keyed by instruction name. Each
// series has one point per window from the instruction's first execution
// onward. Nil when PerInstruction was not enabled.
func (t *Trace) InstructionSeries() map[string]*stats.Series {
	t.finalize()
	if t.instrSeries == nil {
		return nil
	}
	out := make(map[string]*stats.Series, len(t.instrSeries))
	for in, se := range t.instrSeries {
		out[in.String()] = se
	}
	return out
}

// Stats finalizes the trace and returns its summary.
func (t *Trace) Stats() TraceStats {
	t.finalize()
	return TraceStats{
		Cycles:    t.cycles,
		Windows:   len(t.windows),
		Energy:    t.cum,
		MeanPower: t.online.Mean(),
		PeakPower: t.online.Max(),
		RMSPower:  t.online.RMS(),
	}
}

// Format renders the trace summary as one human-readable line.
func (s TraceStats) Format() string {
	return fmt.Sprintf("cycles=%d windows=%d energy=%.4g J mean=%.4g W peak=%.4g W rms=%.4g W",
		s.Cycles, s.Windows, s.Energy, s.MeanPower, s.PeakPower, s.RMSPower)
}
