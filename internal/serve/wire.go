// Package serve exposes the batch run engine as a long-lived HTTP
// service: scenario batches come in as JSON, run on the shared
// engine.Runner under admission control and per-request deadlines, and
// results stream back either synchronously or through async jobs. The
// daemon entry point is cmd/ahbserved.
//
// The serving layer leans on two properties the lower layers guarantee:
// runs are deterministic (an isolated kernel and seeded workloads per
// scenario, so a cached result is byte-identical to a fresh one) and
// cancellable (context propagation into the simulation loop, so a
// deadline or drain stops mid-flight with completed scenarios intact).
package serve

import (
	"encoding/json"
	"fmt"
	"strings"

	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/exec"
	"ahbpower/internal/fault"
	"ahbpower/internal/metrics"
	"ahbpower/internal/power"
	"ahbpower/internal/topo"
	"ahbpower/internal/workload"
)

// RunRequest is the body of POST /v1/run: one scenario batch.
type RunRequest struct {
	// Scenarios is the batch, executed with the engine's deterministic
	// ordering guarantees. Required, non-empty.
	Scenarios []ScenarioSpec `json:"scenarios"`
	// Async, when true, enqueues the batch as a job and returns 202 with
	// a job id instead of blocking until completion.
	Async bool `json:"async,omitempty"`
	// TimeoutMS bounds the batch's run time in milliseconds; the server
	// clamps it to its configured maximum and applies its default when 0.
	// On expiry the batch is cancelled mid-flight and completed scenarios
	// are still returned (the unfinished ones carry the deadline error).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache for this request (results are
	// still stored for later hits).
	NoCache bool `json:"no_cache,omitempty"`
	// Backend is the request-level execution-backend default
	// ("event"|"compiled"|"auto"|"lanes") applied to every scenario that
	// does not carry its own; empty defers to the server's configured
	// default. "lanes" is the retired lane backend's hint and runs like
	// "compiled". An execution hint only: results and cache keys are
	// identical across backends, so requests with different backends
	// share cache entries.
	Backend string `json:"backend,omitempty"`
	// Accuracy is the request-level accuracy-class default
	// ("cycle"|"transaction") applied to every scenario that does not
	// carry its own; empty defers to the server's configured default.
	// Unlike Backend this changes the computed result — "transaction"
	// selects the calibrated transaction-level estimate, the daemon's
	// cheap tier — and is part of the cache key, so the two classes never
	// answer each other.
	Accuracy string `json:"accuracy,omitempty"`
}

// ScenarioSpec is the wire form of one engine.Scenario.
type ScenarioSpec struct {
	Name string `json:"name"`
	// Topology is the declarative description of the bus shape (see
	// internal/topo): masters in priority order, slaves with explicit
	// address regions and per-slave wait states, arbitration policy, clock
	// and data width; omitted means the paper's testbench (2 masters +
	// default master + 3 slaves @ 100 MHz). It passes the ERC compliance
	// pass at decode time — before admission — and rejections come back
	// as structured 400 bodies carrying typed rule codes.
	Topology *topo.Topology `json:"topology,omitempty"`
	// Analyzer parameterizes the power analyzer; omitted means the global
	// style with default technology constants.
	Analyzer *AnalyzerSpec `json:"analyzer,omitempty"`
	// SkipAnalyzer runs without power instrumentation.
	SkipAnalyzer bool `json:"skip_analyzer,omitempty"`
	// Workloads supplies per-master traffic; omitted means the paper
	// workload sized to Cycles.
	Workloads []WorkloadSpec `json:"workloads,omitempty"`
	// Cycles is the number of bus clock cycles to simulate. Required.
	Cycles uint64 `json:"cycles"`
	// Faults is an optional deterministic fault-injection plan (see
	// internal/fault). Plans participate in the canonical cache key, so
	// faulty runs cache like clean ones.
	Faults *fault.Plan `json:"faults,omitempty"`
	// Backend selects this scenario's execution backend
	// ("event"|"compiled"|"auto"|"lanes"); empty defers to the
	// request-level and then the server-level default. Not part of the
	// cache key. "lanes" is the retired lane backend's hint: it runs like
	// "compiled" and reports the retirement as its backend fallback.
	Backend string `json:"backend,omitempty"`
	// Accuracy selects this scenario's accuracy class
	// ("cycle"|"transaction"); empty defers to the request-level and then
	// the server-level default. Part of the cache key: transaction
	// estimates are approximate by contract and cache separately from
	// exact results. Scenarios the estimator cannot honor (active fault
	// plans, DPM estimators, ...) conservatively run cycle-accurate with
	// the reason surfaced in the result's backend_fallback.
	Accuracy string `json:"accuracy,omitempty"`
}

// AnalyzerSpec is the wire form of core.AnalyzerConfig.
type AnalyzerSpec struct {
	Style string    `json:"style,omitempty"` // global|local|private, default global
	Tech  *TechSpec `json:"tech,omitempty"`
	DPM   *DPMSpec  `json:"dpm,omitempty"`
}

// TechSpec overrides the technology constants.
type TechSpec struct {
	VDD float64 `json:"vdd_V"`
	CPD float64 `json:"cpd_F"`
	CO  float64 `json:"co_F"`
}

// DPMSpec enables the dynamic-power-management estimator.
type DPMSpec struct {
	IdleThreshold int     `json:"idle_threshold"`
	WakeEnergy    float64 `json:"wake_energy_J"`
}

// WorkloadSpec is the wire form of workload.Config.
type WorkloadSpec struct {
	Seed           int64  `json:"seed"`
	NumSequences   int    `json:"sequences"`
	PairsMin       int    `json:"pairs_min"`
	PairsMax       int    `json:"pairs_max"`
	IdleMin        int    `json:"idle_min"`
	IdleMax        int    `json:"idle_max"`
	AddrBase       uint32 `json:"addr_base"`
	AddrSize       uint32 `json:"addr_size"`
	LocalityWindow uint32 `json:"locality_window,omitempty"`
	Pattern        string `json:"pattern,omitempty"` // random|low-activity|counter
	BurstBeats     int    `json:"burst_beats,omitempty"`
}

// parsePattern maps a wire pattern name to its value, accepting the
// historical "low_activity" spelling on top of workload.ParsePattern.
func parsePattern(s string) (workload.Pattern, error) {
	n := strings.ToLower(strings.TrimSpace(s))
	if n == "low_activity" {
		n = "low-activity"
	}
	return workload.ParsePattern(n)
}

// parseStyle maps a wire style name to its value.
func parseStyle(s string) (core.Style, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "global":
		return core.StyleGlobal, nil
	case "local":
		return core.StyleLocal, nil
	case "private":
		return core.StylePrivate, nil
	}
	return 0, fmt.Errorf("unknown analyzer style %q (want global|local|private)", s)
}

// Scenario converts the spec into an engine scenario. It only validates
// what the wire layer itself defines (enumerations, required fields);
// structural validation stays in core/workload, whose errors come back
// per scenario in the result.
func (s *ScenarioSpec) Scenario(index int) (engine.Scenario, error) {
	sc := engine.Scenario{Name: s.Name, Cycles: s.Cycles, SkipAnalyzer: s.SkipAnalyzer}
	if sc.Name == "" {
		sc.Name = fmt.Sprintf("scenario-%d", index)
	}
	if s.Cycles == 0 {
		return sc, fmt.Errorf("scenario %q: cycles must be positive", sc.Name)
	}
	if !exec.ValidName(s.Backend) {
		return sc, fmt.Errorf("scenario %q: unknown backend %q (want event|compiled|lanes|auto)", sc.Name, s.Backend)
	}
	sc.Backend = s.Backend
	if !engine.ValidAccuracy(s.Accuracy) {
		return sc, fmt.Errorf("scenario %q: unknown accuracy %q (want cycle|transaction)", sc.Name, s.Accuracy)
	}
	sc.Accuracy = s.Accuracy
	if s.Topology != nil {
		ct := s.Topology.Canonical()
		if err := topo.Check(ct); err != nil {
			return sc, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		sc.Topo = &ct
	} else {
		sc.System = core.PaperSystem()
	}
	if s.Analyzer != nil && !s.SkipAnalyzer {
		style, err := parseStyle(s.Analyzer.Style)
		if err != nil {
			return sc, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		sc.Analyzer.Style = style
		if s.Analyzer.Tech != nil {
			sc.Analyzer.Tech = power.Tech{VDD: s.Analyzer.Tech.VDD, CPD: s.Analyzer.Tech.CPD, CO: s.Analyzer.Tech.CO}
		}
		if s.Analyzer.DPM != nil {
			sc.Analyzer.DPM = &core.DPMConfig{
				IdleThreshold: s.Analyzer.DPM.IdleThreshold,
				WakeEnergy:    s.Analyzer.DPM.WakeEnergy,
			}
		}
		if err := sc.Analyzer.Validate(); err != nil {
			return sc, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return sc, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		sc.Faults = s.Faults
	}
	for _, w := range s.Workloads {
		pat, err := parsePattern(w.Pattern)
		if err != nil {
			return sc, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		sc.Workloads = append(sc.Workloads, workload.Config{
			Seed:         w.Seed,
			NumSequences: w.NumSequences,
			PairsMin:     w.PairsMin, PairsMax: w.PairsMax,
			IdleMin: w.IdleMin, IdleMax: w.IdleMax,
			AddrBase: w.AddrBase, AddrSize: w.AddrSize,
			LocalityWindow: w.LocalityWindow,
			Pattern:        pat,
			BurstBeats:     w.BurstBeats,
		})
	}
	return sc, nil
}

// ErrorWire is the structured 400 body for decode-time rejections. ERC
// rejections (an invalid "topology" object) additionally carry the typed
// rule findings, so clients can match on codes instead of message text.
type ErrorWire struct {
	Error string `json:"error"`
	// Erc holds the ERC rule violations when the rejection came from the
	// topology compliance pass.
	Erc []topo.Error `json:"erc_errors,omitempty"`
	// Warnings holds the advisory ERC findings that accompanied the
	// rejection.
	Warnings []topo.Warning `json:"erc_warnings,omitempty"`
}

// ValidateResult is the per-scenario outcome of POST /v1/validate.
type ValidateResult struct {
	Name  string `json:"name"`
	Valid bool   `json:"valid"`
	// Key is the scenario's canonical cache key, when canonicalizable.
	Key string `json:"key,omitempty"`
	// Errors and Warnings are the typed ERC findings; a valid scenario can
	// still carry warnings (address-map gaps, no default master).
	Errors   []topo.Error   `json:"erc_errors,omitempty"`
	Warnings []topo.Warning `json:"erc_warnings,omitempty"`
	// Error is the non-ERC decode failure, when that is what rejected the
	// scenario (bad enum values, missing cycles, malformed faults).
	Error string `json:"error,omitempty"`
}

// ValidateResponse is the body of POST /v1/validate: the dry-run
// decode + ERC validation report for every scenario, no admission or
// execution involved.
type ValidateResponse struct {
	// Valid reports whether every scenario decoded and validated cleanly.
	Valid   bool             `json:"valid"`
	Results []ValidateResult `json:"results"`
}

// ResultWire is the per-scenario response payload. It carries only
// deterministic content — no wall-clock timings — so the marshaled bytes
// depend solely on the scenario's canonical key, which is what makes a
// cached entry byte-identical to a fresh run. Timing lives in the
// response envelope's batch metrics, outside the identity guarantee.
type ResultWire struct {
	Name string `json:"name"`
	// Key is the scenario's canonical cache key; empty when the scenario
	// is not canonicalizable (never cached).
	Key    string `json:"key,omitempty"`
	Error  string `json:"error,omitempty"`
	Cycles uint64 `json:"cycles,omitempty"`
	Beats  uint64 `json:"beats,omitempty"`

	SimSeconds  float64 `json:"sim_s,omitempty"`
	TotalEnergy float64 `json:"energy_J,omitempty"`
	AvgPower    float64 `json:"avg_power_W,omitempty"`
	PJPerBeat   float64 `json:"pJ_per_beat,omitempty"`

	DataTransferShare float64 `json:"data_transfer_share,omitempty"`
	ArbitrationShare  float64 `json:"arbitration_share,omitempty"`
	IdleShare         float64 `json:"idle_share,omitempty"`

	Table       []TableRowWire     `json:"table,omitempty"`
	BlockEnergy map[string]float64 `json:"block_energy_J,omitempty"`
	BlockShare  map[string]float64 `json:"block_share,omitempty"`

	Counts     map[string]uint64 `json:"counts,omitempty"`
	Violations []string          `json:"violations,omitempty"`

	// Faults carries the injector's per-kind counters when the scenario
	// ran with an active fault plan. Injection is deterministic, so the
	// counters are part of the byte-identity guarantee like energies.
	Faults *fault.Stats `json:"faults,omitempty"`
	// Accuracy is the accuracy class the numbers in this result actually
	// have ("cycle"|"transaction"). Part of the deterministic payload:
	// the class is in the cache key, so cached bytes always agree with it.
	// A transaction request that conservatively fell back still reports
	// "cycle" here — the numbers are exact.
	Accuracy string `json:"accuracy,omitempty"`

	DPM *DPMWire `json:"dpm,omitempty"`
}

// TableRowWire is one Table 1 row.
type TableRowWire struct {
	Instruction string  `json:"instruction"`
	Count       uint64  `json:"count"`
	AvgEnergy   float64 `json:"avg_energy_J"`
	TotalEnergy float64 `json:"total_energy_J"`
	Share       float64 `json:"share"`
}

// DPMWire is the dynamic-power-management estimate.
type DPMWire struct {
	GatedCycles uint64  `json:"gated_cycles"`
	Wakeups     uint64  `json:"wakeups"`
	GrossSaved  float64 `json:"gross_saved_J"`
	WakeCost    float64 `json:"wake_cost_J"`
	NetSaved    float64 `json:"net_saved_J"`
}

// resultWire flattens an engine result into its deterministic wire form.
func resultWire(res *engine.Result, key string) ResultWire {
	w := ResultWire{Name: res.Scenario.Name, Key: key}
	if res.Err != nil {
		w.Error = res.Err.Error()
		return w
	}
	w.Beats = res.Beats
	w.PJPerBeat = res.PJPerBeat()
	w.Counts = res.Counts
	w.Faults = res.Faults
	w.Accuracy = res.Accuracy
	for _, v := range res.Violations {
		w.Violations = append(w.Violations, v.Error())
	}
	w.Cycles = res.Metrics.Cycles
	if r := res.Report; r != nil {
		w.Cycles = r.Cycles
		w.SimSeconds = r.SimSeconds
		w.TotalEnergy = r.TotalEnergy
		w.AvgPower = r.AvgPower
		w.DataTransferShare = r.DataTransferShare
		w.ArbitrationShare = r.ArbitrationShare
		w.IdleShare = r.IdleShare
		w.BlockEnergy = r.BlockEnergy
		w.BlockShare = r.BlockShare
		for _, row := range r.Table {
			w.Table = append(w.Table, TableRowWire{
				Instruction: row.Instruction,
				Count:       row.Count,
				AvgEnergy:   row.AvgEnergy,
				TotalEnergy: row.TotalEnergy,
				Share:       row.Share,
			})
		}
	}
	if res.DPM != nil {
		w.DPM = &DPMWire{
			GatedCycles: res.DPM.GatedCycles,
			Wakeups:     res.DPM.Wakeups,
			GrossSaved:  res.DPM.GrossSaved,
			WakeCost:    res.DPM.WakeCost,
			NetSaved:    res.DPM.NetSaved(),
		}
	}
	return w
}

// RunResponse is the body of a completed batch: one raw result per
// scenario in input order (raw, so cached bytes are embedded untouched
// and a cache hit is byte-identical to a fresh run) plus the batch
// metrics envelope.
type RunResponse struct {
	Results []json.RawMessage `json:"results"`
	Batch   BatchWire         `json:"batch"`
}

// BatchWire is the envelope's metrics block: engine batch metrics plus
// cache accounting. Wall-clock values live here, outside the
// byte-identity guarantee of Results.
type BatchWire struct {
	metrics.BatchMetricsWire
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// Uncacheable counts scenarios with no canonical key.
	Uncacheable int `json:"uncacheable,omitempty"`
	// Degraded reports that the batch ran in degraded mode (queue pressure
	// past the configured threshold); DegradedActions lists what the server
	// actually downgraded or overrode for this batch.
	Degraded        bool     `json:"degraded,omitempty"`
	DegradedActions []string `json:"degraded_actions,omitempty"`
	// Backends counts the freshly executed scenarios by the backend that
	// actually ran them (cache hits executed nothing and are not counted).
	// Like the degraded fields this lives in the envelope, not in
	// ResultWire: the backend is an execution detail, and result bytes
	// stay identical — and cache-shareable — across backends.
	Backends map[string]int `json:"backends,omitempty"`
	// Accuracies counts the freshly executed scenarios by the accuracy
	// class that actually ran ("cycle"|"transaction") — a transaction
	// request that conservatively fell back counts under "cycle".
	Accuracies map[string]int `json:"accuracies,omitempty"`
	// BackendFallbacks lists, in input order, the scenarios that did not
	// run on the path they asked for, with the surfaced reason ("name:
	// reason"): a compiled/auto/lanes hint that fell back to the event
	// backend, a transaction request that ran cycle-accurate, or a lanes
	// hint that ran compiled because the lane backend is retired.
	BackendFallbacks []string `json:"backend_fallbacks,omitempty"`
}
