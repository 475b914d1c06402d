package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/exec"
	"ahbpower/internal/tlm"
	"ahbpower/internal/topo"
)

// Config parameterizes a Server. The zero value is usable: every field
// falls back to the documented default.
type Config struct {
	// Workers is the engine worker-pool size per batch; default
	// runtime.GOMAXPROCS(0) so a container CPU quota is respected.
	Workers int
	// MaxConcurrent bounds how many batches execute at once; default 2.
	// Each batch already parallelizes across Workers, so a small number
	// of concurrent batches saturates the pool without thrashing.
	MaxConcurrent int
	// MaxQueue bounds how many admitted requests may wait for a batch
	// slot; beyond it the server answers 503 with Retry-After
	// (backpressure instead of unbounded memory growth). Fully cached
	// batches bypass the queue entirely. Default 256.
	MaxQueue int
	// CacheEntries bounds the content-addressed result cache, and the
	// request memo to as many scenarios; 0 means the default 4096,
	// negative disables both.
	CacheEntries int
	// MaxScenarios bounds the batch size of one request; default 1024.
	MaxScenarios int
	// MaxCycles bounds the per-scenario cycle count; default 50M. An
	// admission-time guard: a request that would pin a worker for
	// minutes is rejected up front, not cancelled halfway.
	MaxCycles uint64
	// DefaultTimeout and MaxTimeout bound the per-request deadline
	// (defaults 60s and 10m). A request's timeout_ms is clamped to
	// MaxTimeout; 0 selects DefaultTimeout.
	DefaultTimeout, MaxTimeout time.Duration
	// DegradeAt is the queue-pressure fraction (waiting / MaxQueue) at
	// which the server enters degraded mode: still-valid cached results
	// may be served even for no_cache requests and, with DegradeEstimate,
	// eligible scenarios are estimated at transaction accuracy, with the
	// degradation reported in the response envelope. 0 selects the
	// default 0.75; negative disables degradation.
	DegradeAt float64
	// StateDir, when non-empty, makes the daemon crash-safe: async job
	// lifecycle events are written to an fsynced write-ahead journal under
	// the directory, completed scenario results gain a content-addressed
	// disk tier, and in-progress scenarios persist periodic checkpoints.
	// A server opened on the same directory after a crash replays the
	// journal — finished jobs answer byte-identically from disk, and
	// interrupted jobs are re-admitted and resumed from their latest
	// checkpoints. Empty (the default) keeps all state in memory.
	StateDir string
	// CheckpointEvery is the minimum number of simulated cycles between
	// persisted checkpoints of an in-progress scenario; it only takes
	// effect with a StateDir. 0 disables checkpointing (results and the
	// journal stay durable; an interrupted scenario restarts from cycle
	// 0 on recovery).
	CheckpointEvery uint64
	// DegradeEstimate, when true, adds the transaction-level estimator to
	// the degraded-mode playbook: under queue pressure, eligible
	// cycle-accuracy scenarios are downgraded to transaction accuracy —
	// an estimate instead of a shed — with the action surfaced in the
	// response envelope. Off by default: degraded responses change
	// numerically when estimates stand in for exact results, so operators
	// must opt in.
	DegradeEstimate bool
}

// maxBodyBytes bounds a request body; jobsKeep bounds how many finished
// async jobs stay queryable.
const (
	maxBodyBytes = 16 << 20
	jobsKeep     = 256
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.MaxScenarios <= 0 {
		c.MaxScenarios = 1024
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 50_000_000
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.DegradeAt == 0 {
		c.DegradeAt = 0.75
	}
	return c
}

// Server serves scenario batches over HTTP on top of engine.Runner. Use
// New, mount Handler on an http.Server, and call Drain on shutdown.
type Server struct {
	cfg   Config
	cache *cache[[]byte]
	// memo remembers, by body digest, the requests answered wholly from
	// the cache (see decodeRun).
	memo *cache[resolvedRequest]
	jobs *jobRegistry
	// state is the durable journal + disk cache + checkpoint store; nil
	// without Config.StateDir.
	state *stateStore

	// slots is the batch-execution semaphore; waiting counts requests
	// blocked in admission (the bounded queue).
	slots   chan struct{}
	waiting atomic.Int64

	// draining flags that no new work is accepted; runCtx is cancelled
	// when in-flight runs must stop (drain grace expired). admitMu orders
	// a request's admission (see admit) against Drain's setting of
	// draining, so Drain waits for every request admitted before it.
	draining   atomic.Bool
	admitMu    sync.Mutex
	runCtx     context.Context
	cancelRuns context.CancelFunc
	inflight   sync.WaitGroup

	ctr  counters
	vars *expvar.Map

	// degradeHook overrides the queue-pressure signal in tests; nil means
	// the real degradedNow.
	degradeHook func() bool
}

// counters are the expvar-exported serving metrics.
type counters struct {
	requests         expvar.Int // POST /v1/run requests accepted for processing
	badRequests      expvar.Int
	rejectedBusy     expvar.Int // 503: admission queue full
	rejectedDraining expvar.Int // 503: draining
	batches          expvar.Int // batches executed to completion
	scenariosRun     expvar.Int
	scenariosFailed  expvar.Int
	cacheHits        expvar.Int
	cacheMisses      expvar.Int
	jobsCreated      expvar.Int
	latencySum       expvar.Float // seconds, completed batches
	latencyCount     expvar.Int
	running          expvar.Int // gauge: batches executing
	queued           expvar.Int // gauge: requests waiting for a slot
	cacheSize        expvar.Int // gauge

	degradedBatches     expvar.Int // batches that ran in degraded mode
	degradedCacheServed expvar.Int // cache hits served despite no_cache
	degradedEstimated   expvar.Int // scenarios downgraded to transaction accuracy under pressure

	backendEventRuns    expvar.Int // scenarios executed on the event backend
	backendCompiledRuns expvar.Int // scenarios executed on the compiled backend
	backendTLMRuns      expvar.Int // scenarios estimated by the transaction-level fast path
	backendFallbacks    expvar.Int // runs with a surfaced backend fallback reason
	accuracyFallbacks   expvar.Int // transaction requests that conservatively ran cycle-accurate

	validateRequests expvar.Int // POST /v1/validate requests
	validateRejects  expvar.Int // validate requests with at least one invalid scenario

	checkpointsSaved    expvar.Int // scenario snapshots persisted to the state dir
	scenariosResumed    expvar.Int // scenarios resumed from a persisted checkpoint
	checkpointFallbacks expvar.Int // scenarios that could not checkpoint (reason surfaced)
	stateCorrupt        expvar.Int // persisted state that did not check out: checkpoints and results (deleted), journal lines (skipped)
	journalErrors       expvar.Int // best-effort state-dir writes that failed
	jobsRecovered       expvar.Int // interrupted jobs re-admitted by journal replay
	diskCacheHits       expvar.Int // results served from the disk cache tier
}

// New builds a server from a configuration without durable state. It is
// Open minus the error return — construction without a StateDir cannot
// fail — and panics if given a StateDir whose recovery fails; daemons
// that configure one should call Open.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open builds a server from the configuration. With a Config.StateDir it
// also opens the write-ahead journal and replays it: jobs retired by a
// previous process become queryable again with their original responses,
// and jobs a crash interrupted are re-admitted — their completed
// scenarios answer from the disk cache, and interrupted long scenarios
// resume from their latest persisted checkpoints.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: newCache[[]byte](cfg.CacheEntries),
		memo:  newCache[resolvedRequest](cfg.CacheEntries),
		jobs:  newJobRegistry(jobsKeep),
		slots: make(chan struct{}, cfg.MaxConcurrent),
	}
	s.runCtx, s.cancelRuns = context.WithCancel(context.Background())
	s.vars = new(expvar.Map).Init()
	for name, v := range map[string]expvar.Var{
		"requests_total":    &s.ctr.requests,
		"bad_requests":      &s.ctr.badRequests,
		"rejected_busy":     &s.ctr.rejectedBusy,
		"rejected_draining": &s.ctr.rejectedDraining,
		"batches_total":     &s.ctr.batches,
		"scenarios_run":     &s.ctr.scenariosRun,
		"scenarios_failed":  &s.ctr.scenariosFailed,
		"cache_hits":        &s.ctr.cacheHits,
		"cache_misses":      &s.ctr.cacheMisses,
		"jobs_created":      &s.ctr.jobsCreated,
		"latency_sum_s":     &s.ctr.latencySum,
		"latency_count":     &s.ctr.latencyCount,
		"batches_running":   &s.ctr.running,
		"queue_waiting":     &s.ctr.queued,
		"cache_size":        &s.ctr.cacheSize,

		"degraded_batches":      &s.ctr.degradedBatches,
		"degraded_cache_served": &s.ctr.degradedCacheServed,
		"degraded_estimated":    &s.ctr.degradedEstimated,

		"backend_event_runs":    &s.ctr.backendEventRuns,
		"backend_compiled_runs": &s.ctr.backendCompiledRuns,
		"backend_tlm_runs":      &s.ctr.backendTLMRuns,
		"backend_fallbacks":     &s.ctr.backendFallbacks,
		"accuracy_fallbacks":    &s.ctr.accuracyFallbacks,

		"validate_requests": &s.ctr.validateRequests,
		"validate_rejects":  &s.ctr.validateRejects,

		"checkpoints_saved":    &s.ctr.checkpointsSaved,
		"scenarios_resumed":    &s.ctr.scenariosResumed,
		"checkpoint_fallbacks": &s.ctr.checkpointFallbacks,
		"state_corrupt":        &s.ctr.stateCorrupt,
		"journal_errors":       &s.ctr.journalErrors,
		"jobs_recovered":       &s.ctr.jobsRecovered,
		"disk_cache_hits":      &s.ctr.diskCacheHits,
	} {
		s.vars.Set(name, v)
	}
	if cfg.StateDir != "" {
		st, err := openState(cfg.StateDir)
		if err != nil {
			return nil, err
		}
		s.state = st
		rs, err := st.replay()
		if err != nil {
			st.close()
			return nil, err
		}
		s.ctr.stateCorrupt.Add(int64(rs.corrupt))
		s.jobs.setNext(rs.next)
		for _, fj := range rs.finished {
			s.jobs.restoreFinished(fj.id, fj.status, fj.response, fj.total)
		}
		for _, pj := range rs.pending {
			s.recoverJob(pj.id, pj.req)
		}
	}
	return s, nil
}

// recoverJob re-admits one journaled-but-unretired job: the request is
// resolved exactly as at original admission (so cache keys match the
// scenario entries the crashed process journaled) and executed under
// this process's lifetime, keeping its original id so clients polling
// across the restart see the same job complete. The acceptance is not
// re-journaled — replay folds by id, so the original entry still covers
// it. A request the current configuration no longer admits (limits
// tightened between runs) is retired cancelled with the rejection's
// error body, which a poll shows as the status's error.
func (s *Server) recoverJob(id string, req *RunRequest) {
	scenarios, keys, err := s.resolveRequest(req)
	if err != nil {
		j := s.jobs.restore(id, 0)
		b, _ := json.Marshal(errorWire(err))
		j.finish(JobCancelled, b)
		s.journalRetired(id, JobCancelled, b)
		s.jobs.retire(j)
		return
	}
	j := s.jobs.restore(id, len(scenarios))
	s.ctr.jobsRecovered.Add(1)
	s.runJobAsync(j, req, scenarios, keys)
}

// Handler returns the HTTP API:
//
//	POST /v1/run        run a scenario batch (async with {"async": true})
//	POST /v1/validate   dry-run decode + ERC validation, no admission/run
//	GET  /v1/jobs/{id}  poll an async job
//	GET  /healthz       liveness/readiness (503 while draining)
//	GET  /metrics       serving counters (expvar JSON)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/validate", s.handleValidate)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Draining reports whether the server has stopped accepting work.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain stops accepting new requests, lets in-flight batches finish for
// up to grace, then cancels whatever is still running and waits for it
// to unwind. Batches cancelled by the drain still record their partial
// results (completed scenarios are never dropped), and async jobs stay
// queryable until the process exits. Safe to call more than once.
func (s *Server) Drain(grace time.Duration) {
	s.admitMu.Lock()
	s.draining.Store(true)
	s.admitMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	if grace > 0 {
		select {
		case <-done:
		case <-time.After(grace):
		}
	}
	// Cancel stragglers (and release admission waiters), then wait: a
	// cancelled run stops at the next cycle-slice boundary. Every job
	// journals its terminal state before releasing its inflight slot, so
	// once the wait returns the journal is complete and safe to close.
	s.cancelRuns()
	<-done
	if s.state != nil {
		s.state.close()
	}
}

// MetricsJSON renders the serving counters as the same JSON body
// /metrics serves — the drain-time flush target for the daemon's log.
func (s *Server) MetricsJSON() string {
	s.syncGauges()
	return s.vars.String()
}

func (s *Server) syncGauges() {
	s.ctr.queued.Set(s.waiting.Load())
	s.ctr.cacheSize.Set(int64(s.cache.size()))
}

var (
	errBusy     = errors.New("serve: admission queue full")
	errDraining = errors.New("serve: draining")
)

// degradedNow reports whether new batches should run in degraded mode:
// the admission queue has filled past the configured pressure fraction.
func (s *Server) degradedNow() bool {
	if s.degradeHook != nil {
		return s.degradeHook()
	}
	if s.cfg.DegradeAt < 0 {
		return false
	}
	return float64(s.waiting.Load()) >= s.cfg.DegradeAt*float64(s.cfg.MaxQueue)
}

// acquire admits one batch: it waits for an execution slot unless the
// bounded queue is full, the server is draining, or ctx ends first. On
// success the returned release function must be called when the batch
// finishes.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	if s.waiting.Add(1) > int64(s.cfg.MaxQueue) {
		s.waiting.Add(-1)
		return nil, errBusy
	}
	defer s.waiting.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, nil
	case <-s.runCtx.Done():
		return nil, errDraining
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// timeout resolves a request's deadline from its timeout_ms. It clamps
// in milliseconds before converting, so no timeout_ms overflows.
func (s *Server) timeout(ms int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(min(ms, s.cfg.MaxTimeout.Milliseconds())) * time.Millisecond
	}
	return min(d, s.cfg.MaxTimeout)
}

// decode reads and decodes a request body (see readBody and decodeBody).
func (s *Server) decode(r *http.Request, req *RunRequest) error {
	body, err := readBody(r)
	if err != nil {
		return err
	}
	return decodeBody(body, req)
}

// readBody reads a request body under the body bound.
func readBody(r *http.Request) ([]byte, error) {
	n := r.ContentLength // a size hint only; the bound is enforced below
	if n < 0 || n > maxBodyBytes {
		n = 0
	}
	buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
	if _, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, maxBodyBytes)); err != nil {
		return nil, fmt.Errorf("reading request: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeBody decodes a body holding exactly one JSON object, refusing
// unknown fields and anything but whitespace after the object.
func decodeBody(body []byte, req *RunRequest) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("decoding request: %d bytes of trailing data after the request object", len(rest))
	}
	return nil
}

// resolvedRequest is a run request resolved into engine scenarios and
// their canonical cache keys ("" = uncacheable).
type resolvedRequest struct {
	req       *RunRequest
	scenarios []engine.Scenario
	keys      []string
}

// decodeRun reads, decodes and resolves a run request. It also returns
// the SHA-256 digest of the body and whether the request came from the
// memo: a body the server has already answered wholly from the result
// cache is looked up by digest and skips the decode, the scenario
// resolution, ERC and the key computation. That is sound because
// resolveRequest is deterministic in (request, config), and a server's
// config never changes. The memo entry is shared, so a hit hands out
// fresh scenario and key slices, which runBatch may re-key in place.
func (s *Server) decodeRun(r *http.Request) (rq resolvedRequest, digest string, memoized bool, err error) {
	body, err := readBody(r)
	if err != nil {
		return rq, "", false, err
	}
	sum := sha256.Sum256(body)
	digest = string(sum[:])
	if m, ok := s.memo.get(digest); ok {
		return resolvedRequest{m.req, slices.Clone(m.scenarios), slices.Clone(m.keys)}, digest, true, nil
	}
	var req RunRequest
	if err := decodeBody(body, &req); err != nil {
		return rq, "", false, err
	}
	scenarios, keys, err := s.resolveRequest(&req)
	if err != nil {
		return rq, "", false, err
	}
	return resolvedRequest{&req, scenarios, keys}, digest, false, nil
}

// resolveRequest validates an already-decoded request and resolves every
// scenario, failing on the first error. It is deterministic in (request,
// config), which is what lets journal replay re-resolve a recovered job
// to the same scenarios and keys its first admission computed.
func (s *Server) resolveRequest(req *RunRequest) ([]engine.Scenario, []string, error) {
	if err := s.checkRequest(req); err != nil {
		return nil, nil, err
	}
	scenarios := make([]engine.Scenario, len(req.Scenarios))
	keys := make([]string, len(req.Scenarios))
	for i := range req.Scenarios {
		sc, key, err := s.resolveScenario(req, i)
		if err != nil {
			return nil, nil, err
		}
		scenarios[i], keys[i] = sc, key
	}
	return scenarios, keys, nil
}

// checkRequest validates what a request sets for its whole batch: the
// scenario count and the request-level backend and accuracy defaults.
func (s *Server) checkRequest(req *RunRequest) error {
	if len(req.Scenarios) == 0 {
		return errors.New("request has no scenarios")
	}
	if len(req.Scenarios) > s.cfg.MaxScenarios {
		return fmt.Errorf("request has %d scenarios, limit %d", len(req.Scenarios), s.cfg.MaxScenarios)
	}
	if !exec.ValidName(req.Backend) {
		return fmt.Errorf("unknown backend %q (want event|compiled|lanes|auto)", req.Backend)
	}
	if !engine.ValidAccuracy(req.Accuracy) {
		return fmt.Errorf("unknown accuracy %q (want cycle|transaction)", req.Accuracy)
	}
	return nil
}

// resolveScenario resolves scenario i of a checked request into the
// engine scenario /v1/run executes and its canonical cache key: wire
// decode, the cycle limit, then the backend and the accuracy inherited
// scenario → request. On error the returned scenario still carries the
// name.
func (s *Server) resolveScenario(req *RunRequest, i int) (engine.Scenario, string, error) {
	sc, err := req.Scenarios[i].Scenario(i)
	if err != nil {
		return sc, "", err
	}
	if sc.Cycles > s.cfg.MaxCycles {
		return sc, "", fmt.Errorf("scenario %q: %d cycles exceeds the per-scenario limit %d", sc.Name, sc.Cycles, s.cfg.MaxCycles)
	}
	// The backend hint never affects the key; accuracy is part of the
	// result identity, so it must settle before the key is computed.
	if sc.Backend == "" {
		sc.Backend = req.Backend
	}
	if sc.Accuracy == "" {
		sc.Accuracy = req.Accuracy
	}
	key, _ := sc.CanonicalKey()
	return sc, key, nil
}

// admit counts a decoded request as in flight unless the server is
// draining. It holds admitMu, as Drain does to set draining, so a request
// is either admitted before Drain begins, and waited for, or refused.
// Admission comes after the body is decoded: Drain never waits for a slow
// body.
func (s *Server) admit() bool {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inflight.Add(1)
	return true
}

// handleRun serves POST /v1/run.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.reject(w, &s.ctr.rejectedDraining, "server is draining")
		return
	}
	rq, digest, memoized, err := s.decodeRun(r)
	if err != nil {
		s.ctr.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorWire(err))
		return
	}
	if !s.admit() {
		s.reject(w, &s.ctr.rejectedDraining, "server is draining")
		return
	}
	defer s.inflight.Done()
	s.ctr.requests.Add(1)
	req := rq.req
	if req.Async {
		s.startJob(w, req, rq.scenarios, rq.keys)
		return
	}

	// Merge the request context with the server's run context so a drain
	// cancels in-flight synchronous batches too.
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
	defer cancel()
	stop := context.AfterFunc(s.runCtx, cancel)
	defer stop()

	resp, err := s.runBatch(ctx, rq.scenarios, rq.keys, req.NoCache, nil)
	if err != nil {
		// The batch needed the runner but was never admitted: 503 with
		// backpressure advice, body still carrying any cache hits plus
		// the admission error per unexecuted scenario.
		s.rejectAcquire(w, err, &resp)
		return
	}
	// A body answered wholly from the cache is the one clients repeat.
	// Only such bodies enter the memo, so one-shot misses never fill it;
	// a no_cache request hits only when degraded, and a degraded batch
	// may have re-keyed its scenarios.
	if !memoized && !resp.Batch.Degraded && resp.Batch.CacheHits == len(rq.scenarios) {
		s.memo.put(digest, rq, len(rq.scenarios))
	}
	writeRunResponse(w, http.StatusOK, &resp)
}

// errorWire folds a decode-time rejection into the structured 400 body:
// ERC rejections carry their typed findings, other errors just the
// message.
func errorWire(err error) ErrorWire {
	ew := ErrorWire{Error: err.Error()}
	var ve *topo.ValidationError
	if errors.As(err, &ve) {
		ew.Erc = ve.Errors
		ew.Warnings = ve.Warnings
	}
	return ew
}

// handleValidate serves POST /v1/validate: the dry-run path of the same
// decode, resolution and ERC validation /v1/run performs before
// admission, reported per scenario without consuming a queue slot or
// executing anything. A valid scenario reports the key /v1/run would use.
// The report answers 200 whether or not the scenarios validate; an
// undecodable body or a request-level error is a 400, as on /v1/run.
func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	s.ctr.validateRequests.Add(1)
	var req RunRequest
	err := s.decode(r, &req)
	if err == nil {
		err = s.checkRequest(&req)
	}
	if err != nil {
		s.ctr.badRequests.Add(1)
		s.ctr.validateRejects.Add(1)
		writeJSON(w, http.StatusBadRequest, errorWire(err))
		return
	}
	resp := ValidateResponse{Valid: true}
	for i := range req.Scenarios {
		sc, key, err := s.resolveScenario(&req, i)
		vr := ValidateResult{Name: sc.Name, Key: key}
		if err == nil {
			vr.Valid = true
			// A clean decode can still carry advisory findings (address-map
			// gaps, no default master).
			_, vr.Warnings = topo.Validate(sc.Topology())
		} else {
			resp.Valid = false
			vr.Error = err.Error()
			var ve *topo.ValidationError
			if errors.As(err, &ve) {
				vr.Errors = ve.Errors
				vr.Warnings = ve.Warnings
			}
		}
		resp.Results = append(resp.Results, vr)
	}
	if !resp.Valid {
		s.ctr.validateRejects.Add(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

// startJob answers an async run: 202 with a job id, batch execution in
// the background under the server's (not the request's) lifetime. With a
// state dir the acceptance hits the journal before the 202 leaves — once
// a client holds a job id, no crash can lose the job.
func (s *Server) startJob(w http.ResponseWriter, req *RunRequest, scenarios []engine.Scenario, keys []string) {
	j := s.jobs.create(len(scenarios))
	s.ctr.jobsCreated.Add(1)
	if s.state != nil {
		if err := s.state.append(journalEntry{T: journalAccepted, Job: j.id, Req: req}); err != nil {
			s.ctr.journalErrors.Add(1)
		}
	}
	s.runJobAsync(j, req, scenarios, keys)
	writeJSON(w, http.StatusAccepted, map[string]string{
		"job_id": j.id,
		"status": JobQueued,
		"url":    "/v1/jobs/" + j.id,
	})
}

// runJobAsync executes one async job in the background: the shared tail
// of a fresh admission, whose request already holds an inflight slot,
// and a journal-replay recovery. The terminal state — done or cancelled,
// drain included — is journaled before the job's inflight slot is
// released, so a drained daemon's journal always agrees with what its
// clients were told.
func (s *Server) runJobAsync(j *job, req *RunRequest, scenarios []engine.Scenario, keys []string) {
	s.inflight.Add(1)
	go func() {
		defer s.inflight.Done()
		defer s.jobs.retire(j)
		ctx, cancel := context.WithTimeout(s.runCtx, s.timeout(req.TimeoutMS))
		defer cancel()
		j.status.Store(JobRunning)
		resp, err := s.runBatch(ctx, scenarios, keys, req.NoCache, func(engine.Result) {
			j.completed.Add(1)
		})
		b, _ := appendRunResponse(nil, &resp)
		status := JobDone
		if err != nil || ctx.Err() != nil {
			status = JobCancelled
		}
		j.finish(status, b)
		s.journalRetired(j.id, status, b)
	}()
}

// journalRetired records a job's terminal state, best-effort.
func (s *Server) journalRetired(id, status string, response []byte) {
	if s.state == nil {
		return
	}
	if err := s.state.append(journalEntry{T: journalRetired, Job: id, Status: status, Response: response}); err != nil {
		s.ctr.journalErrors.Add(1)
	}
}

// cacheGet reads the content-addressed result cache through both tiers:
// memory first, then the state dir, promoting disk hits into memory. A
// disk-tier file that is not what json.Marshal writes (a torn write, a
// foreign file) is deleted and counted as state_corrupt, and the lookup
// misses: the scenario re-runs and its fresh bytes take the file's
// place, instead of the response embedding bytes that break it.
func (s *Server) cacheGet(key string) ([]byte, bool) {
	if b, ok := s.cache.get(key); ok {
		return b, true
	}
	if s.state != nil {
		if b, ok := s.state.loadResult(key); ok {
			if !embeddable(b) {
				s.state.dropResult(key)
				s.ctr.stateCorrupt.Add(1)
				return nil, false
			}
			s.ctr.diskCacheHits.Add(1)
			s.cache.put(key, b, 1)
			return b, true
		}
	}
	return nil, false
}

// cachePut stores a fresh result in both tiers, journals the scenario
// completion, and drops the scenario's now-superseded checkpoint. State
// writes are best-effort: the response already holds the result.
func (s *Server) cachePut(key string, b []byte) {
	s.cache.put(key, b, 1)
	if s.state == nil {
		return
	}
	if err := s.state.storeResult(key, b); err != nil {
		s.ctr.journalErrors.Add(1)
	} else if err := s.state.append(journalEntry{T: journalScenario, Key: key}); err != nil {
		s.ctr.journalErrors.Add(1)
	}
	s.state.dropCheckpoint(key)
}

// attachCheckpoint arms crash-safe snapshots on one cacheable cache
// miss: as it runs, the scenario persists its latest kernel snapshot
// under its canonical key, and it picks up whatever snapshot a crashed
// predecessor left there — the resumed tail is Float64bits-identical to
// a from-scratch run, so the cached result is too. Saving is best-effort
// (a state-dir write failure is counted, never fatal). A persisted
// snapshot that does not decode (a torn write, another snapshot version)
// is deleted and counted as state_corrupt, and the scenario runs from
// cycle 0 instead of failing on it at every request. Scenarios planned
// onto the estimator run unarmed rather than forcing a fallback just to
// snapshot. A keyed scenario has no Setup hook and no trace recorder, the
// features that block checkpointing, so every other plan arms; a run
// that still reports a checkpoint fallback is counted from its result.
func (s *Server) attachCheckpoint(sc *engine.Scenario, key string) {
	if s.state == nil || s.cfg.CheckpointEvery == 0 || key == "" {
		return
	}
	if p, err := sc.Plan(); err != nil || p.Path == tlm.Name {
		return
	}
	st := s.state
	resume := st.loadCheckpoint(key)
	if resume != nil {
		if _, err := core.DecodeSnapshot(resume); err != nil {
			st.dropCheckpoint(key)
			s.ctr.stateCorrupt.Add(1)
			resume = nil
		}
	}
	sc.Checkpoint = &engine.CheckpointConfig{
		Every: s.cfg.CheckpointEvery,
		Save: func(cycle uint64, snapshot []byte) error {
			if err := st.storeCheckpoint(key, snapshot); err != nil {
				s.ctr.journalErrors.Add(1)
				return nil
			}
			s.ctr.checkpointsSaved.Add(1)
			return nil
		},
		Resume: resume,
	}
}

// handleJob serves GET /v1/jobs/{id}: the bytes writeJSON would send for
// the job's JobStatus, with the response spliced in, not re-encoded.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	st := JobStatus{
		ID:        j.id,
		Status:    j.status.Load().(string),
		Total:     j.total,
		Completed: int(j.completed.Load()),
	}
	// Read after the status, so a finished status always comes with its
	// outcome.
	response, refusal := j.pollResponse()
	st.Error = refusal
	b := appendJobStatus(nil, &st, response)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(b, '\n')) // the connection is the only failure mode here
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.syncGauges()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, s.vars.String())
}

// runBatch is the shared execution path of sync requests and async
// jobs: resolve cache hits, admit the batch only if anything actually
// needs the runner (a fully cached batch never occupies a slot), run
// the misses, marshal and cache the fresh results, and assemble the
// response in input order. A non-nil error means the batch needed the
// runner and was never admitted (queue full, draining, or ctx ended
// while queued); the response then carries the cache hits plus one
// admission error per unexecuted scenario.
func (s *Server) runBatch(ctx context.Context, scenarios []engine.Scenario, keys []string, noCache bool, onDone func(engine.Result)) (RunResponse, error) {
	start := time.Now()

	results := make([]json.RawMessage, len(scenarios))
	var resp RunResponse

	// Degraded mode: under queue pressure still-valid cached results are
	// served even when the request said no_cache. With
	// Config.DegradeEstimate, eligible cycle-accuracy scenarios are also
	// downgraded to the transaction-level estimate: an approximate answer
	// instead of a long queue wait. Every action is reported in the
	// response envelope.
	degraded := s.degradedNow()
	cacheOverride := false
	if degraded {
		s.ctr.degradedBatches.Add(1)
		resp.Batch.Degraded = true
		if s.cfg.DegradeEstimate {
			estimated := 0
			for i := range scenarios {
				sc := &scenarios[i]
				if engine.NormalizeAccuracy(sc.Accuracy) != engine.AccuracyCycle {
					continue
				}
				est := *sc
				est.Accuracy = engine.AccuracyTransaction
				if p, err := est.Plan(); err != nil || p.Accuracy != engine.AccuracyTransaction {
					continue // would only fall back to the exact path anyway
				}
				sc.Accuracy = engine.AccuracyTransaction
				keys[i], _ = sc.CanonicalKey() // re-key: estimates are their own cache class
				estimated++
			}
			if estimated > 0 {
				s.ctr.degradedEstimated.Add(int64(estimated))
				resp.Batch.DegradedActions = append(resp.Batch.DegradedActions,
					fmt.Sprintf("estimated_transaction_accuracy:%d", estimated))
			}
		}
		if noCache {
			noCache = false
			cacheOverride = true
			resp.Batch.DegradedActions = append(resp.Batch.DegradedActions, "served_from_cache_despite_no_cache")
		}
	}

	var missIdx []int
	for i := range scenarios {
		if keys[i] == "" {
			resp.Batch.Uncacheable++
			missIdx = append(missIdx, i)
			continue
		}
		if !noCache {
			if b, ok := s.cacheGet(keys[i]); ok {
				s.ctr.cacheHits.Add(1)
				resp.Batch.CacheHits++
				if cacheOverride {
					s.ctr.degradedCacheServed.Add(1)
				}
				results[i] = b
				if onDone != nil {
					onDone(engine.Result{Index: i, Scenario: scenarios[i]})
				}
				continue
			}
		}
		s.ctr.cacheMisses.Add(1)
		resp.Batch.CacheMisses++
		missIdx = append(missIdx, i)
	}

	var admissionErr error
	if len(missIdx) > 0 {
		release, err := s.acquire(ctx)
		if err != nil {
			admissionErr = err
			resp.Batch.Failed = len(missIdx)
			for _, i := range missIdx {
				b, _ := json.Marshal(ResultWire{Name: scenarios[i].Name, Key: keys[i], Error: err.Error()})
				results[i] = b
			}
		} else {
			s.ctr.running.Add(1)
			miss := make([]engine.Scenario, len(missIdx))
			for n, i := range missIdx {
				miss[n] = scenarios[i]
				s.attachCheckpoint(&miss[n], keys[i])
			}
			runner := engine.NewRunner(s.cfg.Workers)
			runner.OnDone = onDone
			res, batch := runner.RunMetered(ctx, miss)
			release()
			s.ctr.running.Add(-1)
			resp.Batch.BatchMetricsWire = batch.Wire()
			for n := range res {
				if res[n].ResumedFrom > 0 {
					s.ctr.scenariosResumed.Add(1)
				}
				if res[n].CheckpointFallback != "" {
					s.ctr.checkpointFallbacks.Add(1)
				}
				// Backend accounting counts completed runs only.
				if res[n].Err == nil {
					switch res[n].Backend {
					case exec.NameEvent:
						s.ctr.backendEventRuns.Add(1)
					case exec.NameCompiled:
						s.ctr.backendCompiledRuns.Add(1)
					case tlm.Name:
						s.ctr.backendTLMRuns.Add(1)
					}
				}
				if res[n].Backend != "" {
					if resp.Batch.Backends == nil {
						resp.Batch.Backends = map[string]int{}
					}
					resp.Batch.Backends[res[n].Backend]++
				}
				if ac := res[n].Accuracy; ac != "" {
					if resp.Batch.Accuracies == nil {
						resp.Batch.Accuracies = map[string]int{}
					}
					resp.Batch.Accuracies[ac]++
				}
				if ac := res[n].Accuracy; ac != "" && ac != engine.NormalizeAccuracy(res[n].Scenario.Accuracy) {
					s.ctr.accuracyFallbacks.Add(1)
				}
				if fb := res[n].BackendFallback; fb != "" {
					s.ctr.backendFallbacks.Add(1)
					resp.Batch.BackendFallbacks = append(resp.Batch.BackendFallbacks,
						fmt.Sprintf("%s: %s", res[n].Scenario.Name, fb))
				}
			}
			for n, i := range missIdx {
				b, err := json.Marshal(resultWire(&res[n], keys[i]))
				if err != nil {
					// Marshaling plain data cannot fail; keep the
					// scenario's slot valid regardless.
					b, _ = json.Marshal(ResultWire{Name: scenarios[i].Name, Error: err.Error()})
				}
				results[i] = b
				s.ctr.scenariosRun.Add(1)
				if res[n].Err != nil {
					s.ctr.scenariosFailed.Add(1)
				} else if keys[i] != "" {
					s.cachePut(keys[i], b)
				}
			}
		}
	}
	resp.Results = results
	resp.Batch.Scenarios = len(scenarios)
	if admissionErr == nil {
		s.ctr.batches.Add(1)
		s.ctr.latencySum.Add(time.Since(start).Seconds())
		s.ctr.latencyCount.Add(1)
	}
	return resp, admissionErr
}

// retryAfter derives the Retry-After advice from queue pressure: an
// empty queue clears in about a batch, a full one in several. The result
// is clamped to ≥1 second no matter what the waiting gauge reads — it is
// sampled unsynchronized and can transiently under-read while the queue
// drains mid-request, and a 0 (or negative) advice turns well-behaved
// clients into zero-delay retry spinners.
func (s *Server) retryAfter() int {
	after := 1 + int(s.waiting.Load())/max(1, s.cfg.MaxConcurrent)
	if after < 1 {
		after = 1
	}
	return after
}

// reject answers 503 with backpressure advice.
func (s *Server) reject(w http.ResponseWriter, ctr *expvar.Int, msg string) {
	ctr.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": msg})
}

// rejectAcquire answers a failed admission with 503 + Retry-After; the
// body is the batch response runBatch assembled (cache hits intact, the
// admission error on every scenario that never ran).
func (s *Server) rejectAcquire(w http.ResponseWriter, err error, resp *RunResponse) {
	switch {
	case errors.Is(err, errBusy):
		s.ctr.rejectedBusy.Add(1)
	case errors.Is(err, errDraining):
		s.ctr.rejectedDraining.Add(1)
		// Otherwise the request's own context ended while queued (client
		// gone or deadline spent waiting).
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
	writeRunResponse(w, http.StatusServiceUnavailable, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the connection is the only failure mode here
}

// writeRunResponse is writeJSON for a RunResponse, with the same bytes:
// the embedded results are copied, not re-parsed (see appendRunResponse).
func writeRunResponse(w http.ResponseWriter, status int, resp *RunResponse) {
	b, err := appendRunResponse(nil, resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err == nil { // like Encode, send nothing for an unencodable envelope
		_, _ = w.Write(append(b, '\n')) // the connection is the only failure mode here
	}
}
