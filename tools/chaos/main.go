// Command chaos is the fault-injection soak harness: it sweeps many
// randomized-but-seeded fault plans (fault.RandomPlan) through the batch
// engine, asserting on every run the invariants that must survive any
// injected fault — energy conservation, no deadline hangs, byte-identical
// replay, exactly one execution per scenario — plus a control proving the
// engine's failure taxonomy: a permanent failure surfaces as a typed
// per-scenario error, attempted once, without poisoning its batch. With
// -addr it additionally soaks a live ahbserved daemon over HTTP and
// asserts the same replay identity through the wire format.
// With -crash-bin it runs the kill-recovery phase: boot an ahbserved on
// a durable state dir, SIGKILL it mid-batch, restart it on the same dir
// and assert every job completes byte-identical to an uninterrupted
// control daemon (see crash.go).
//
// Usage:
//
//	chaos -seeds 64 -seed 1 -cycles 1500 -timeout 30s \
//	      -addr http://localhost:8098 -o chaos_report.json
//	chaos -seeds 4 -crash-bin ./ahbserved -crash-addr 127.0.0.1:8099
//
// Exit status is 1 when any invariant was violated, 0 on a clean soak.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/fault"
)

type config struct {
	seeds   int
	seed    int64
	cycles  uint64
	workers int
	timeout time.Duration
	addr    string
	verbose bool

	// Crash-recovery phase (enabled by crashBin): the harness boots its
	// own ahbserved on a state dir, SIGKILLs it mid-batch, restarts it on
	// the same dir and asserts every job completes byte-identical to an
	// uninterrupted control daemon.
	crashBin    string
	crashAddr   string
	crashCycles uint64
	crashEvery  uint64
}

// soakReport is the machine-readable outcome written by -o.
type soakReport struct {
	Seeds       int      `json:"seeds"`
	Cycles      uint64   `json:"cycles"`
	Scenarios   int      `json:"scenarios"`
	FaultEvents uint64   `json:"fault_events"`
	ReplayOK    bool     `json:"replay_ok"`
	BackendsOK  bool     `json:"backends_ok"`
	LanesOK     bool     `json:"lanes_ok"`
	TLMOK       bool     `json:"tlm_ok"`
	ControlsOK  bool     `json:"controls_ok"`
	DaemonOK    bool     `json:"daemon_ok,omitempty"`
	CrashOK     bool     `json:"crash_ok,omitempty"`
	Violations  []string `json:"violations"`
	ElapsedMs   float64  `json:"elapsed_ms"`
}

func main() {
	var cfg config
	flag.IntVar(&cfg.seeds, "seeds", 64, "number of randomized fault plans to soak")
	flag.Int64Var(&cfg.seed, "seed", 1, "base seed; plan i uses seed+i")
	flag.Uint64Var(&cfg.cycles, "cycles", 1500, "bus cycles per scenario")
	flag.IntVar(&cfg.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	flag.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-scenario deadline; an expiry is a hang and a violation")
	flag.StringVar(&cfg.addr, "addr", "", "ahbserved base URL; when set, also soak the daemon over HTTP")
	flag.StringVar(&cfg.crashBin, "crash-bin", "", "path to an ahbserved binary; when set, run the kill-recovery phase (boot, SIGKILL mid-batch, restart, assert byte-identical completion)")
	flag.StringVar(&cfg.crashAddr, "crash-addr", "127.0.0.1:8099", "listen address the kill-recovery daemons bind")
	flag.Uint64Var(&cfg.crashCycles, "crash-cycles", 4_000_000, "cycles per scenario in the kill-recovery batch (long enough to die mid-run)")
	flag.Uint64Var(&cfg.crashEvery, "crash-every", 50_000, "checkpoint interval the kill-recovery daemons run with")
	flag.BoolVar(&cfg.verbose, "v", false, "log each scenario outcome")
	jsonOut := flag.String("o", "", "write the JSON report to this file")
	flag.Parse()

	rep := runSoak(cfg, os.Stdout)
	fmt.Printf("chaos: %d scenarios over %d seeds, %d fault events, replay_ok=%v backends_ok=%v lanes_ok=%v tlm_ok=%v controls_ok=%v",
		rep.Scenarios, rep.Seeds, rep.FaultEvents, rep.ReplayOK, rep.BackendsOK, rep.LanesOK, rep.TLMOK, rep.ControlsOK)
	if cfg.addr != "" {
		fmt.Printf(" daemon_ok=%v", rep.DaemonOK)
	}
	if cfg.crashBin != "" {
		fmt.Printf(" crash_ok=%v", rep.CrashOK)
	}
	fmt.Printf(" (%.1fs)\n", rep.ElapsedMs/1000)
	for _, v := range rep.Violations {
		fmt.Println("VIOLATION:", v)
	}
	if *jsonOut != "" {
		b, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
	}
	if len(rep.Violations) > 0 {
		fmt.Printf("chaos: FAILED with %d violations\n", len(rep.Violations))
		os.Exit(1)
	}
	fmt.Println("chaos: PASSED")
}

// runSoak executes the whole soak — randomized sweep, replay, control
// scenarios, optional daemon phase — and folds everything into a report.
func runSoak(cfg config, logw io.Writer) soakReport {
	if cfg.workers < 1 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	rep := soakReport{Seeds: cfg.seeds, Cycles: cfg.cycles, Violations: []string{}}

	scens, plans := buildScenarios(cfg)
	rep.Scenarios = len(scens)
	results := engine.NewRunner(cfg.workers).Run(context.Background(), scens)
	for i := range results {
		res := &results[i]
		rep.Violations = append(rep.Violations, checkResult(res, plans[i])...)
		if res.Faults != nil {
			rep.FaultEvents += res.Faults.Total()
		}
		if cfg.verbose {
			fmt.Fprintf(logw, "chaos: %s attempts=%d faults=%d err=%v\n",
				res.Scenario.Name, res.Attempts, faultTotal(res), res.Err)
		}
	}

	// Replay: the identical batch must reproduce byte-identical outcomes.
	again := engine.NewRunner(cfg.workers).Run(context.Background(), buildScenariosOnly(cfg))
	a, b := fingerprint(results), fingerprint(again)
	rep.ReplayOK = bytes.Equal(a, b)
	if !rep.ReplayOK {
		rep.Violations = append(rep.Violations, "replay fingerprint differs between identical batches")
	}

	// Backend mix: the same sweep with execution backends pinned per
	// scenario must be indistinguishable from the all-event baseline.
	mix := backendMixPhase(cfg, a)
	rep.BackendsOK = len(mix) == 0
	rep.Violations = append(rep.Violations, mix...)

	// Lane mix: a fault-free lane-eligible sweep packed into bit-parallel
	// lanes must be indistinguishable from the same sweep run all-event.
	lm := laneMixPhase(cfg)
	rep.LanesOK = len(lm) == 0
	rep.Violations = append(rep.Violations, lm...)

	// Transaction-level mix: estimates must be deterministic and
	// conservation-clean, and faulted scenarios requested at transaction
	// accuracy must conservatively fall back to the exact path.
	tm := tlmPhase(cfg, a)
	rep.TLMOK = len(tm) == 0
	rep.Violations = append(rep.Violations, tm...)

	ctl := controlChecks(cfg)
	rep.ControlsOK = len(ctl) == 0
	rep.Violations = append(rep.Violations, ctl...)

	if cfg.addr != "" {
		dm := daemonPhase(cfg)
		rep.DaemonOK = len(dm) == 0
		rep.Violations = append(rep.Violations, dm...)
	}
	if cfg.crashBin != "" {
		cr := crashPhase(cfg, logw)
		rep.CrashOK = len(cr) == 0
		rep.Violations = append(rep.Violations, cr...)
	}
	rep.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	return rep
}

func faultTotal(res *engine.Result) uint64 {
	if res.Faults == nil {
		return 0
	}
	return res.Faults.Total()
}

// buildScenarios derives one scenario per seed: a seed-determined random
// fault plan on the paper system, with the arbitration policy and the
// slaves' wait states (0-3) varied by seed so all three arbiters and
// slaves with and without wait states face injected faults.
func buildScenarios(cfg config) ([]engine.Scenario, []*fault.Plan) {
	scens := make([]engine.Scenario, cfg.seeds)
	plans := make([]*fault.Plan, cfg.seeds)
	for i := range scens {
		seed := cfg.seed + int64(i)
		sys := core.PaperSystem()
		sys.Policy = policyFor(seed)
		sys.SlaveWaits = int(uint64(seed) % 4)
		plans[i] = fault.RandomPlan(seed)
		scens[i] = engine.Scenario{
			Name:    fmt.Sprintf("chaos-%d", seed),
			System:  sys,
			Cycles:  cfg.cycles,
			Faults:  plans[i],
			Timeout: cfg.timeout,
		}
	}
	return scens, plans
}

func buildScenariosOnly(cfg config) []engine.Scenario {
	s, _ := buildScenarios(cfg)
	return s
}

// policyFor rotates the arbitration policy across seeds.
func policyFor(seed int64) ahb.ArbPolicy {
	switch seed % 3 {
	case 1:
		return ahb.PolicyFixed
	case 2:
		return ahb.PolicyRoundRobin
	}
	return ahb.PolicySticky
}

// checkResult applies the per-run invariants: the scenario must complete
// (no hang, no unexpected failure) in exactly one attempt, the protocol
// monitor must stay clean unless the plan flips bus values, and both
// energy decompositions must balance against the total.
func checkResult(res *engine.Result, plan *fault.Plan) []string {
	var v []string
	name := res.Scenario.Name
	if res.Err != nil {
		if engine.Classify(res.Err) == engine.ClassTimeout {
			v = append(v, fmt.Sprintf("%s: hang — per-scenario deadline expired: %v", name, res.Err))
		} else {
			v = append(v, fmt.Sprintf("%s: unexpected failure: %v", name, res.Err))
		}
		return v
	}
	if res.Attempts != 1 {
		v = append(v, fmt.Sprintf("%s: attempts=%d, want 1", name, res.Attempts))
	}
	// Forced responses and wait states are protocol-legal at any slave
	// wait count. Only a flipped address or data word may trip the
	// monitor; those violations show up in the replay fingerprint instead.
	if !flips(plan) && len(res.Violations) > 0 {
		v = append(v, fmt.Sprintf("%s: %d protocol violations on a run without flip rules (first: %v)",
			name, len(res.Violations), res.Violations[0]))
	}
	if plan.Active() && res.Faults == nil {
		v = append(v, fmt.Sprintf("%s: active plan produced no injector stats", name))
	}
	if err := conservation(res.Report); err != nil {
		v = append(v, fmt.Sprintf("%s: %v", name, err))
	}
	return v
}

// flips reports whether the plan corrupts the values masters drive.
func flips(plan *fault.Plan) bool {
	for _, r := range plan.Rules {
		if r.Kind == fault.KindAddrFlip || r.Kind == fault.KindDataFlip {
			return true
		}
	}
	return false
}

// conservation checks both energy decompositions of a report against its
// total: per-instruction table rows and per-block shares.
func conservation(rep *core.Report) error {
	if rep == nil {
		return errors.New("no report")
	}
	tol := 1e-9*rep.TotalEnergy + 1e-12
	var sum float64
	for _, row := range rep.Table {
		sum += row.TotalEnergy
	}
	if math.Abs(sum-rep.TotalEnergy) > tol {
		return fmt.Errorf("instruction table sums to %g J, total is %g J", sum, rep.TotalEnergy)
	}
	var bsum float64
	for _, e := range rep.BlockEnergy {
		bsum += e
	}
	if math.Abs(bsum-rep.TotalEnergy) > tol {
		return fmt.Errorf("block energies sum to %g J, total is %g J", bsum, rep.TotalEnergy)
	}
	return nil
}

// fingerprint folds a batch's observable outcome into canonical bytes:
// bit-exact energies, beat and event counters, injector stats and attempt
// counts. Two runs of the same batch must produce identical fingerprints.
func fingerprint(results []engine.Result) []byte {
	type fp struct {
		Name     string            `json:"name"`
		Energy   uint64            `json:"energy_bits"`
		Blocks   map[string]uint64 `json:"block_bits"`
		Beats    uint64            `json:"beats"`
		Counts   map[string]uint64 `json:"counts"`
		Faults   *fault.Stats      `json:"faults,omitempty"`
		Attempts int               `json:"attempts"`
		Protocol int               `json:"protocol_violations"`
		Err      string            `json:"err,omitempty"`
	}
	fps := make([]fp, len(results))
	for i := range results {
		res := &results[i]
		f := fp{Name: res.Scenario.Name, Beats: res.Beats, Counts: res.Counts,
			Faults: res.Faults, Attempts: res.Attempts, Protocol: len(res.Violations)}
		if res.Err != nil {
			f.Err = res.Err.Error()
		}
		if res.Report != nil {
			f.Energy = math.Float64bits(res.Report.TotalEnergy)
			f.Blocks = make(map[string]uint64, len(res.Report.BlockEnergy))
			for k, e := range res.Report.BlockEnergy {
				f.Blocks[k] = math.Float64bits(e)
			}
		}
		fps[i] = f
	}
	b, _ := json.Marshal(fps) // map keys marshal sorted, so this is canonical
	return b
}

// backendMixPhase re-runs the randomized faulted sweep with the
// execution backend pinned per scenario — alternating compiled and event
// — and asserts the batch fingerprint matches the all-event baseline:
// which kernel advances the cycles must be invisible in every observable
// outcome, even with faults injected. The soak scenarios use no Setup
// hooks or delta-level instrumentation, so a compiled pin must actually
// run compiled; any fallback is a violation.
func backendMixPhase(cfg config, baseline []byte) []string {
	var v []string
	scens := buildScenariosOnly(cfg)
	wantCompiled := 0
	for i := range scens {
		if i%2 == 0 {
			scens[i].Backend = "compiled"
			wantCompiled++
		} else {
			scens[i].Backend = "event"
		}
	}
	results := engine.NewRunner(cfg.workers).Run(context.Background(), scens)
	ranCompiled := 0
	for i := range results {
		res := &results[i]
		if res.Backend == "compiled" {
			ranCompiled++
		}
		if res.BackendFallback != "" {
			v = append(v, fmt.Sprintf("%s: compiled pin fell back to event: %s",
				res.Scenario.Name, res.BackendFallback))
		}
	}
	if ranCompiled != wantCompiled {
		v = append(v, fmt.Sprintf("backend mix: %d scenarios ran compiled, want %d", ranCompiled, wantCompiled))
	}
	if !bytes.Equal(fingerprint(results), baseline) {
		v = append(v, "backend mix: fingerprint differs from the all-event sweep")
	}
	return v
}

// buildLaneScenarios derives the lane-mix sweep: fault-free scenarios on
// the paper system with the policy rotated by seed (so packs form per
// structural key) and the run length varied per lane (so lanes retire at
// different cycles within one pack). No timeout and no fault plan — both
// would make the scenarios lane-ineligible, and this phase asserts that
// every pinned scenario actually packs.
func buildLaneScenarios(cfg config, backend string) []engine.Scenario {
	scens := make([]engine.Scenario, cfg.seeds)
	for i := range scens {
		seed := cfg.seed + int64(i)
		sys := core.PaperSystem()
		sys.Policy = policyFor(seed)
		scens[i] = engine.Scenario{
			Name:    fmt.Sprintf("lane-mix-%d", seed),
			System:  sys,
			Cycles:  cfg.cycles + uint64(i%5)*64,
			Backend: backend,
		}
	}
	return scens
}

// laneMixPhase runs the lane-mix sweep twice — all-event, then pinned to
// the bit-parallel lane backend — and asserts the batch fingerprints are
// byte-identical: packing 64 scenarios into the bits of shared words must
// be invisible in every observable outcome. The scenarios are constructed
// lane-eligible, so any fallback to a per-scenario run is a violation, as
// is a batch that never reaches an occupancy above one lane.
func laneMixPhase(cfg config) []string {
	var v []string
	baseRunner := engine.NewRunner(cfg.workers)
	baseline := baseRunner.Run(context.Background(), buildLaneScenarios(cfg, "event"))
	laneRunner := engine.NewRunner(cfg.workers)
	packed := laneRunner.Run(context.Background(), buildLaneScenarios(cfg, "lanes"))
	maxOcc := 0
	for i := range packed {
		res := &packed[i]
		if res.Err != nil {
			v = append(v, fmt.Sprintf("%s: lane run failed: %v", res.Scenario.Name, res.Err))
			continue
		}
		if res.BackendFallback != "" {
			v = append(v, fmt.Sprintf("%s: lanes pin fell back to %s: %s",
				res.Scenario.Name, res.Backend, res.BackendFallback))
		} else if res.Backend != "lanes" {
			v = append(v, fmt.Sprintf("%s: ran backend %q, want lanes", res.Scenario.Name, res.Backend))
		}
		if res.Lanes > maxOcc {
			maxOcc = res.Lanes
		}
	}
	if len(packed) >= 6 && maxOcc < 2 {
		v = append(v, fmt.Sprintf("lane mix: max pack occupancy %d, expected multi-lane packs", maxOcc))
	}
	if !bytes.Equal(fingerprint(packed), fingerprint(baseline)) {
		v = append(v, "lane mix: packed fingerprint differs from the all-event sweep")
	}
	return v
}

// tlmPhase soaks the transaction-level estimator. A fault-free sweep
// requested at transaction accuracy must actually ride the estimator,
// keep both energy decompositions conservation-clean (estimates are
// approximate, but they must still be internally consistent) and replay
// byte-identically — the estimator is deterministic by contract, that is
// what makes its results cacheable. Then the randomized *faulted* sweep
// re-requested at transaction accuracy must conservatively fall back to
// cycle accuracy scenario by scenario, with the reason surfaced in
// BackendFallback, and reproduce the cycle-accurate baseline fingerprint
// bit for bit: a fallback that silently changed the numbers would be an
// accuracy bug wearing a safety feature's clothes.
func tlmPhase(cfg config, baseline []byte) []string {
	var v []string
	build := func() []engine.Scenario {
		scens := make([]engine.Scenario, cfg.seeds)
		for i := range scens {
			seed := cfg.seed + int64(i)
			sys := core.PaperSystem()
			sys.Policy = policyFor(seed)
			scens[i] = engine.Scenario{
				Name:     fmt.Sprintf("tlm-mix-%d", seed),
				System:   sys,
				Cycles:   cfg.cycles + uint64(i%5)*64,
				Accuracy: engine.AccuracyTransaction,
			}
		}
		return scens
	}
	estRunner := engine.NewRunner(cfg.workers)
	est := estRunner.Run(context.Background(), build())
	for i := range est {
		res := &est[i]
		if res.Err != nil {
			v = append(v, fmt.Sprintf("%s: estimate failed: %v", res.Scenario.Name, res.Err))
			continue
		}
		if res.Backend != "tlm" {
			v = append(v, fmt.Sprintf("%s: ran backend %q, want tlm (fallback: %s)",
				res.Scenario.Name, res.Backend, res.BackendFallback))
		}
		if res.Accuracy != engine.AccuracyTransaction {
			v = append(v, fmt.Sprintf("%s: result accuracy %q, want transaction", res.Scenario.Name, res.Accuracy))
		}
		if err := conservation(res.Report); err != nil {
			v = append(v, fmt.Sprintf("%s: %v", res.Scenario.Name, err))
		}
	}
	againRunner := engine.NewRunner(cfg.workers)
	again := againRunner.Run(context.Background(), build())
	if !bytes.Equal(fingerprint(est), fingerprint(again)) {
		v = append(v, "tlm mix: estimate replay fingerprint differs between identical sweeps")
	}

	scens := buildScenariosOnly(cfg)
	for i := range scens {
		scens[i].Accuracy = engine.AccuracyTransaction
	}
	faulted := engine.NewRunner(cfg.workers).Run(context.Background(), scens)
	for i := range faulted {
		res := &faulted[i]
		if res.Err != nil {
			continue // the baseline fingerprint comparison covers error parity
		}
		if res.Backend == "tlm" || res.Accuracy != engine.AccuracyCycle {
			v = append(v, fmt.Sprintf("%s: faulted scenario did not fall back (backend=%q accuracy=%q)",
				res.Scenario.Name, res.Backend, res.Accuracy))
		}
		if !strings.HasPrefix(res.BackendFallback, "transaction accuracy:") {
			v = append(v, fmt.Sprintf("%s: fallback reason %q lacks the transaction-accuracy prefix",
				res.Scenario.Name, res.BackendFallback))
		}
	}
	if !bytes.Equal(fingerprint(faulted), baseline) {
		v = append(v, "tlm mix: faulted transaction sweep differs from the cycle-accurate baseline")
	}
	return v
}

// controlChecks proves the failure taxonomy on a known-bad scenario: a
// permanent failure comes back as a typed, classified error, attempted
// once, while its batch neighbors complete.
func controlChecks(cfg config) []string {
	var v []string
	good := func(name string, seed int64) engine.Scenario {
		return engine.Scenario{Name: name, System: core.PaperSystem(), Cycles: cfg.cycles, Timeout: cfg.timeout,
			Faults: &fault.Plan{Seed: seed}}
	}
	broken := core.PaperSystem()
	broken.NumActiveMasters = 0 // rejected by core.NewSystem: deterministic, permanent
	scens := []engine.Scenario{
		good("ctl-neighbor-a", 1),
		{Name: "ctl-permanent", System: broken, Cycles: cfg.cycles, Timeout: cfg.timeout},
		good("ctl-neighbor-b", 2),
	}
	results := engine.NewRunner(cfg.workers).Run(context.Background(), scens)

	var se *engine.ScenarioError
	perm := results[1]
	switch {
	case perm.Err == nil:
		v = append(v, "control: permanent scenario did not fail")
	case !errors.As(perm.Err, &se):
		v = append(v, fmt.Sprintf("control: permanent failure not typed: %v", perm.Err))
	default:
		if se.Class != engine.ClassPermanent {
			v = append(v, fmt.Sprintf("control: permanent failure classified %s", se.Class))
		}
		if perm.Attempts != 1 {
			v = append(v, fmt.Sprintf("control: permanent failure attempted %d times", perm.Attempts))
		}
		if se.Name != "ctl-permanent" || se.Index != 1 {
			v = append(v, fmt.Sprintf("control: typed error misattributed: name=%q index=%d", se.Name, se.Index))
		}
	}
	if results[0].Err != nil || results[2].Err != nil {
		v = append(v, fmt.Sprintf("control: batch poisoned by permanent failure: a=%v b=%v",
			results[0].Err, results[2].Err))
	}
	return v
}

// daemonPhase soaks a live ahbserved: the same faulted batch is posted
// fresh, from cache, and with no_cache recompute, and all three must
// return byte-identical result payloads. 503 admission rejections are
// retried honoring Retry-After.
func daemonPhase(cfg config) []string {
	var v []string
	client := &http.Client{Timeout: cfg.timeout + 30*time.Second}
	var scens []map[string]any
	for i := 0; i < 3; i++ {
		seed := cfg.seed + int64(i)
		scens = append(scens, map[string]any{
			"name":   fmt.Sprintf("chaos-wire-%d", seed),
			"cycles": cfg.cycles,
			"faults": fault.RandomPlan(seed),
		})
	}
	body, _ := json.Marshal(map[string]any{"scenarios": scens})
	recompute, _ := json.Marshal(map[string]any{"scenarios": scens, "no_cache": true})

	post := func(label string, b []byte) ([]json.RawMessage, bool) {
		raw, err := postWithRetry(client, cfg.addr+"/v1/run", b, 5, 2*time.Second)
		if err != nil {
			v = append(v, fmt.Sprintf("daemon: %s request failed: %v", label, err))
			return nil, false
		}
		var resp struct {
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(raw, &resp); err != nil {
			v = append(v, fmt.Sprintf("daemon: %s response malformed: %v", label, err))
			return nil, false
		}
		for _, r := range resp.Results {
			var one struct {
				Name  string `json:"name"`
				Error string `json:"error"`
			}
			if json.Unmarshal(r, &one) == nil && one.Error != "" {
				v = append(v, fmt.Sprintf("daemon: %s scenario %q failed: %s", label, one.Name, one.Error))
				return nil, false
			}
		}
		return resp.Results, true
	}
	fresh, ok := post("fresh", body)
	if !ok {
		return v
	}
	cached, ok := post("cached", body)
	if ok && !sameResults(fresh, cached) {
		v = append(v, "daemon: cached replay differs from the fresh run")
	}
	recomputed, ok := post("no_cache", recompute)
	if ok && !sameResults(fresh, recomputed) {
		v = append(v, "daemon: no_cache recompute differs from the fresh run")
	}
	return v
}

func sameResults(a, b []json.RawMessage) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// postWithRetry POSTs JSON, retrying 503 admission rejections — and
// refused/reset connections, which is what the daemon's listen socket
// looks like during a crash-recovery restart window — with exponential
// backoff, honoring the daemon's Retry-After hint, each sleep capped at
// rcap.
func postWithRetry(client *http.Client, url string, body []byte, attempts int, rcap time.Duration) ([]byte, error) {
	backoff := 100 * time.Millisecond
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			if attempt >= attempts ||
				(!errors.Is(err, syscall.ECONNREFUSED) && !errors.Is(err, syscall.ECONNRESET)) {
				return nil, err
			}
			sleep := backoff
			if sleep > rcap {
				sleep = rcap
			}
			time.Sleep(sleep)
			backoff *= 2
			continue
		}
		raw, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		if resp.StatusCode/100 == 2 { // 200 sync, 202 async admission
			return raw, nil
		}
		if resp.StatusCode != http.StatusServiceUnavailable || attempt >= attempts {
			return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
		}
		sleep := backoff
		if s, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && s >= 0 {
			if ra := time.Duration(s) * time.Second; ra > sleep {
				sleep = ra
			}
		}
		if sleep > rcap {
			sleep = rcap
		}
		time.Sleep(sleep)
		backoff *= 2
	}
}
