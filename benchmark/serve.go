package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/exec"
	"ahbpower/internal/serve"
	"ahbpower/internal/topo"
)

const (
	// fillJobs retired async jobs make up the journal every restart
	// replays; fillScenarios distinct scenarios of fillCycles answer them.
	fillJobs      = 2000
	fillScenarios = 16
	fillCycles    = 2_000
	// warmScenarios make up the hit request; serveCycles is the horizon
	// of warm and miss scenarios alike.
	warmScenarios = 8
	serveCycles   = 10_000
	serveClients  = 2
	hitsPerMiss   = 3
	// missSampleEvery picks the misses re-run through the engine after
	// the window, as the reference their wire results must match.
	missSampleEvery = 128
)

// serveSpec is the wire form of one paper-topology scenario. It uses the
// declarative topology form, so every decode runs the ERC pass.
func serveSpec(name string, seed int64, cycles uint64) serve.ScenarioSpec {
	t := core.PaperSystem().Topology()
	base, size := t.AddrSpan()
	var ws []serve.WorkloadSpec
	for _, c := range paperTraffic(seed, cycles, base, size) {
		ws = append(ws, serve.WorkloadSpec{
			Seed: c.Seed, NumSequences: c.NumSequences,
			PairsMin: c.PairsMin, PairsMax: c.PairsMax,
			IdleMin: c.IdleMin, IdleMax: c.IdleMax,
			AddrBase: c.AddrBase, AddrSize: c.AddrSize,
			LocalityWindow: c.LocalityWindow,
			Pattern:        c.Pattern.String(),
			BurstBeats:     c.BurstBeats,
		})
	}
	return serve.ScenarioSpec{Name: name, Topology: &t, Workloads: ws, Cycles: cycles}
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// liveServer is a serve.Server behind a loopback HTTP listener.
type liveServer struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan error
}

// startServer opens a server on a state directory, replaying its
// journal, or in memory for an empty stateDir, and starts serving it;
// replay is the serve.Open time alone.
func startServer(stateDir string) (ls *liveServer, replay time.Duration, err error) {
	start := time.Now()
	s, err := serve.Open(serve.Config{StateDir: stateDir})
	if err != nil {
		return nil, 0, err
	}
	replay = time.Since(start)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Drain(0)
		return nil, 0, err
	}
	ls = &liveServer{srv: s, http: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String() + "/v1/run", done: make(chan error, 1)}
	go func() { ls.done <- ls.http.Serve(ln) }()
	return ls, replay, nil
}

// stop shuts the listener down, waits for the serving goroutine, then
// drains the server, which closes its journal.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.http.Shutdown(ctx)
	if serr := <-ls.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	ls.srv.Drain(10 * time.Second)
	return err
}

// newClient is one closed-loop client connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func post(hc *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// decodeBatch checks a 200 batch response with the given cache split and
// returns it with each result decoded.
func decodeBatch(status int, body []byte, hits, misses int) (*serve.RunResponse, []serve.ResultWire, error) {
	if status != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	var resp serve.RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, nil, err
	}
	if resp.Batch.CacheHits != hits || resp.Batch.CacheMisses != misses || resp.Batch.Failed != 0 {
		return nil, nil, fmt.Errorf("batch of %d hits, %d misses, %d failed, want %d hits and %d misses",
			resp.Batch.CacheHits, resp.Batch.CacheMisses, resp.Batch.Failed, hits, misses)
	}
	if len(resp.Results) != hits+misses {
		return nil, nil, fmt.Errorf("%d results for %d scenarios", len(resp.Results), hits+misses)
	}
	out := make([]serve.ResultWire, len(resp.Results))
	for i, raw := range resp.Results {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, nil, err
		}
		w := &out[i]
		switch {
		case w.Error != "":
			return nil, nil, fmt.Errorf("%s: %s", w.Name, w.Error)
		case len(w.Violations) > 0:
			return nil, nil, fmt.Errorf("%s: %d protocol violations (first: %s)", w.Name, len(w.Violations), w.Violations[0])
		case w.Cycles != serveCycles, !(w.TotalEnergy > 0), w.Accuracy != engine.AccuracyCycle:
			return nil, nil, fmt.Errorf("%s: %d cycles, energy %v, accuracy %q", w.Name, w.Cycles, w.TotalEnergy, w.Accuracy)
		}
	}
	return &resp, out, nil
}

// fillFixture builds the state directory every timed restart replays,
// through the public API of the code under test: fillJobs async jobs,
// each retired with its response, and the warm set, whose results land in
// the disk tier. The fill scenarios run once first, so every job is a
// cache hit that never waits for admission. It returns the warm set's
// result bytes, which every later answer for those scenarios must repeat.
func fillFixture(dir string, seed int64, warmBody []byte) ([]json.RawMessage, error) {
	s, err := serve.Open(serve.Config{StateDir: dir})
	if err != nil {
		return nil, err
	}
	defer s.Drain(time.Minute)
	h := s.Handler()
	do := func(body []byte, want int) ([]byte, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if rec.Code != want {
			return nil, fmt.Errorf("fill request answered %d, want %d: %.200s", rec.Code, want, rec.Body.Bytes())
		}
		return rec.Body.Bytes(), nil
	}
	specs := make([]serve.ScenarioSpec, fillScenarios)
	for i := range specs {
		specs[i] = serveSpec(fmt.Sprintf("fill%02d", i), deriveSeed(seed, "serve-fill", i), fillCycles)
	}
	if _, err := do(mustMarshal(serve.RunRequest{Scenarios: specs}), http.StatusOK); err != nil {
		return nil, err
	}
	for j := 0; j < fillJobs; j++ {
		body := mustMarshal(serve.RunRequest{Async: true, Scenarios: specs[j%fillScenarios : j%fillScenarios+1]})
		if _, err := do(body, http.StatusAccepted); err != nil {
			return nil, err
		}
	}
	body, err := do(warmBody, http.StatusOK)
	if err != nil {
		return nil, err
	}
	resp, _, err := decodeBatch(http.StatusOK, body, 0, warmScenarios)
	if err != nil {
		return nil, fmt.Errorf("warm set: %w", err)
	}
	// Durable writes are best-effort in the server; a failed one would
	// leave the journal and disk tier short of what the requests saw.
	c, err := counters(s)
	if err == nil && c["journal_errors"] != 0 {
		err = fmt.Errorf("server counted %v journal_errors", c["journal_errors"])
	}
	return resp.Results, err
}

// copyDir copies the regular files of a two-level state directory.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// stateCounts returns the journal's entry count and the disk cache's
// result count of a state directory.
func stateCounts(dir string) (entries, results int, err error) {
	b, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return 0, 0, err
	}
	files, err := os.ReadDir(filepath.Join(dir, "results"))
	if err != nil {
		return 0, 0, err
	}
	for _, f := range files {
		if strings.HasSuffix(f.Name(), ".json") {
			results++
		}
	}
	return bytes.Count(b, []byte{'\n'}), results, nil
}

// counters reads the server's /metrics counters.
func counters(s *serve.Server) (map[string]float64, error) {
	var m map[string]float64
	if err := json.Unmarshal([]byte(s.MetricsJSON()), &m); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	return m, nil
}

// missSample is a miss kept for the post-window reference check.
type missSample struct {
	spec serve.ScenarioSpec
	wire serve.ResultWire
}

// clientOut is what one closed-loop client measured and checked.
type clientOut struct {
	attempted, failed     int
	hitsSent, hitsMatched int
	problems              []string
	hits, misses          []float64 // untraced request latencies, ms
	tracedHits            []float64
	missKeys              []string
	samples               []missSample
	lt                    layerTotals
}

func (c *clientOut) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 10 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// runServe drives the serve workload: build the state-directory fixture
// (untimed); restart the daemon on copies of it setupReps times, each
// timed until the warm set has come back from the disk tier; serve the
// window from an in-memory daemon warmed with the same set, so that the
// shared disk's fsync latency stays out of the misses; then check a
// sample of misses against the engine and the default seed's warm set
// against the fingerprint.
func runServe(r *run) {
	dir := filepath.Join(buildDir, "serve", fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	warmSpecs := make([]serve.ScenarioSpec, warmScenarios)
	for i := range warmSpecs {
		warmSpecs[i] = serveSpec(fmt.Sprintf("warm%d", i), deriveSeed(r.seed, "serve-warm", i), serveCycles)
	}
	hitBody := mustMarshal(serve.RunRequest{Scenarios: warmSpecs})

	fixture := filepath.Join(dir, "fixture")
	warm, err := fillFixture(fixture, r.seed, hitBody)
	if err != nil {
		r.fail("state fixture: %v", err)
		return
	}
	// One journal entry per accepted and per retired job and one per
	// freshly run scenario, whose result also lands in the disk tier.
	fixtureEntries, fixtureResults, err := stateCounts(fixture)
	if err != nil {
		r.fail("state fixture: %v", err)
		return
	}
	if want := 2*fillJobs + fillScenarios + warmScenarios; fixtureEntries != want {
		r.fail("journal fixture has %d entries, want %d", fixtureEntries, want)
	}
	if want := fillScenarios + warmScenarios; fixtureResults != want {
		r.fail("state fixture holds %d results, want %d", fixtureResults, want)
	}
	fi, err := os.Stat(filepath.Join(fixture, "journal.jsonl"))
	if err != nil {
		r.fail("state fixture: %v", err)
		return
	}

	// checkWarm checks a warm-set answer with the given cache split
	// against the bytes of the miss that first filled it.
	checkWarm := func(srv *liveServer, hits, misses int) error {
		hc := newClient()
		defer hc.CloseIdleConnections()
		status, body, err := post(hc, srv.url, hitBody)
		if err != nil {
			return err
		}
		resp, _, err := decodeBatch(status, body, hits, misses)
		if err != nil {
			return err
		}
		for j := range warm {
			if !bytes.Equal(warm[j], resp.Results[j]) {
				return fmt.Errorf("%s: result bytes differ from the miss that filled the cache", warmSpecs[j].Name)
			}
		}
		return nil
	}
	var setups, replays []float64
	for i := 0; i < setupReps; i++ {
		state := filepath.Join(dir, fmt.Sprintf("state%d", i))
		if err := copyDir(fixture, state); err != nil {
			r.fail("copying the fixture: %v", err)
			return
		}
		runtime.GC()
		start := time.Now()
		srv, replay, err := startServer(state)
		if err != nil {
			r.fail("restart %d: %v", i, err)
			return
		}
		if err := checkWarm(srv, warmScenarios, 0); err != nil {
			r.fail("warm set after restart %d: %v", i, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		replays = append(replays, ms(replay))
		if c, err := counters(srv.srv); err != nil || c["disk_cache_hits"] != warmScenarios {
			r.fail("restart %d answered the warm set with %v disk-cache hits, want %d (%v)", i, c["disk_cache_hits"], warmScenarios, err)
		}
		if err := srv.stop(); err != nil {
			r.fail("stopping restart %d: %v", i, err)
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: set-ups %.3f s\n", setups)
	r.e2e("setup_s", "s", median(setups))

	ls, _, err := startServer("")
	if err != nil {
		r.fail("in-memory server: %v", err)
		return
	}
	defer func() {
		if err := ls.stop(); err != nil {
			r.fail("stopping the server: %v", err)
		}
	}()
	if err := checkWarm(ls, 0, warmScenarios); err != nil {
		r.fail("warming the in-memory server: %v", err)
		return
	}

	seen := map[string]bool{}
	files, err := os.ReadDir(filepath.Join(fixture, "results"))
	if err != nil {
		r.fail("state fixture: %v", err)
		return
	}
	for _, f := range files {
		seen[strings.TrimSuffix(f.Name(), ".json")] = true
	}
	before, err := counters(ls.srv)
	if err != nil {
		r.fail("%v", err)
		return
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	peak := sampleRSS()
	outs := make([]clientOut, serveClients)
	deadline := time.Now().Add(r.seconds)
	var wg sync.WaitGroup
	for c := range outs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			serveClient(r, c, ls.url, deadline, hitBody, warm, &outs[c])
		}(c)
	}
	wg.Wait()
	peakMB, err := peak()
	if err != nil {
		r.fail("resident set: %v", err)
	}
	runtime.ReadMemStats(&m1)

	after, err := counters(ls.srv)
	if err != nil {
		r.fail("%v", err)
		return
	}
	if after["scenarios_failed"] != 0 {
		r.fail("server counted %v scenarios_failed", after["scenarios_failed"])
	}
	var hits, misses, tracedHits []float64
	var lt layerTotals
	var samples []missSample
	repeatedMisses, missCount := 0, 0
	hitsSent, hitsMatched := 0, 0
	for c := range outs {
		o := &outs[c]
		r.attempted += o.attempted
		r.failed += o.failed
		for _, p := range o.problems {
			r.fail("client %d: %s", c, p)
		}
		hits = append(hits, o.hits...)
		misses = append(misses, o.misses...)
		tracedHits = append(tracedHits, o.tracedHits...)
		samples = append(samples, o.samples...)
		hitsSent += o.hitsSent
		hitsMatched += o.hitsMatched
		lt.merge(&o.lt)
		for _, k := range o.missKeys {
			if seen[k] {
				repeatedMisses++
			}
			seen[k] = true
			missCount++
		}
	}
	if repeatedMisses > 0 {
		r.fail("%d of %d miss scenarios repeated an earlier scenario", repeatedMisses, missCount)
	}
	// A hit request is the serve workload's operation; only misses
	// simulate, so its throughput is a miss's cycles over the median miss.
	fmt.Fprintf(os.Stderr, "benchmark: hit ms %s\nbenchmark: miss ms %s\n", spreadLine(hits), spreadLine(misses))
	missMs := median(misses)
	r.e2e("op_p50_ms", "ms", median(hits))
	r.e2e("cycles_per_s", "cycles/s", serveCycles/(missMs/1e3))
	r.e2e("peak_rss_mb", "MB", peakMB)
	r.e2e("miss_p50_ms", "ms", missMs)

	// Reference check: sampled misses re-run as one engine batch on the
	// event backend the server used must match their wire results bit
	// for bit; traced runs time that batch with the runner's hooks and
	// replay some of it layer by layer as well.
	scs := make([]engine.Scenario, 0, len(samples))
	for _, s := range samples {
		sc, err := s.spec.Scenario(len(scs))
		if err != nil {
			r.fail("sample %s: %v", s.spec.Name, err)
			return
		}
		sc.Backend = exec.NameEvent
		scs = append(scs, sc)
	}
	refOp := serveClients << 20
	var refs []engine.Result
	if r.traced() {
		refs, _ = tracedRun(r, &lt, engine.DefaultRunner(), refOp, scs)
	} else {
		refs = engine.DefaultRunner().Run(context.Background(), scs)
	}
	if err := checkResults(refs, wantBackend(exec.NameEvent)); err != nil {
		r.fail("engine reference: %v", err)
		return
	}
	var worst float64
	for n := range refs {
		ref := &refs[n]
		if err := sameWire(ref, &samples[n].wire); err != nil {
			r.fail("served %v", err)
		}
		worst = max(worst, relErr(samples[n].wire.TotalEnergy, ref.Report.TotalEnergy))
		if r.traced() && n < 8 {
			op := refOp | n
			parent := r.rec.begin(0, op, "replay", time.Now())
			replayGenerate(r, &lt, parent, op, &ref.Scenario)
			if build, run, ok := replayCycle(r, &lt, parent, op, ref, exec.Event(), exec.Compiled()); ok {
				addPath(&lt, build, run, ref.Scenario.Cycles)
			}
			r.rec.end(parent, time.Now())
		}
	}
	r.layer("accuracy.energy_err_pct", "%", 100*worst)

	if r.traced() {
		lt.report(r)
		nm := float64(missCount)
		r.layer("serve.hits", "count", float64(len(hits)+len(tracedHits)))
		r.layer("serve.misses", "count", nm)
		cacheHits := after["cache_hits"] - before["cache_hits"]
		r.layer("serve.hit_ratio", "ratio", cacheHits/(cacheHits+after["cache_misses"]-before["cache_misses"]))
		r.layer("serve.replay_ms", "ms", median(replays))
		requests := float64(r.attempted)
		r.layer("runtime.gc_per_op", "count", float64(m1.NumGC-m0.NumGC)/requests)
		r.layer("runtime.alloc_mb_per_op", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/requests/(1<<20))
		r.layer("serve.journal_mb", "MB", float64(fi.Size())/(1<<20))
		// A hit repeats a warm scenario when it returned that scenario's bytes.
		r.layer("serve.hit_repeat_share", "ratio", float64(hitsMatched)/float64(hitsSent))
		for _, class := range []string{"hit", "miss"} {
			self := r.rec.selfTimes("serve.request." + class)
			for i := range self {
				self[i] *= 1e3
			}
			r.layer("serve."+class+"_self_ms", "ms", median(self))
		}
		r.layer("serve.miss_repeat_share", "ratio", float64(repeatedMisses)/nm)
		tails(r, "hit", hits)
		tails(r, "miss", misses)
		// The bench.* figures are of hit requests, the operation behind
		// op_p50_ms.
		reportOps(r, hits, tracedHits)
	}

	// Fingerprint: the default seed's warm set, served by this server.
	specs := make([]serve.ScenarioSpec, warmScenarios)
	for i := range specs {
		specs[i] = serveSpec(fmt.Sprintf("warm%d", i), deriveSeed(defaultSeed, "serve-warm", i), serveCycles)
	}
	hc := newClient()
	defer hc.CloseIdleConnections()
	status, body, err := post(hc, ls.url, mustMarshal(serve.RunRequest{Scenarios: specs}))
	var resp serve.RunResponse
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &resp)
	} else if err == nil {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		r.fail("reference batch: %v", err)
		return
	}
	h := sha256.New()
	for _, raw := range resp.Results {
		h.Write(raw)
		h.Write([]byte{'\n'})
	}
	r.checkFingerprint(hex.EncodeToString(h.Sum(nil))[:32])
}

// tails publishes the 90th percentile of a latency class and its most
// extreme percentile that keeps at least ten samples beyond it.
func tails(r *run, class string, xs []float64) {
	if n := len(xs); n >= 100 {
		r.layer("serve."+class+"_p90_ms", "ms", quantile(xs, 0.9))
	}
	if q, ok := tailLevel(len(xs)); ok {
		r.layer("serve."+class+"_tail_ms", "ms", quantile(xs, q))
		r.layer("serve."+class+"_tail_pct", "%", 100*q)
	}
}

// serveClient is one closed-loop client: hitsPerMiss hit requests, then
// one miss request, repeated until the deadline. In traced runs every
// other round is traced: request spans (a miss's runner time, from the
// envelope's wall_s, as the child) and a replay of the server's decode,
// ERC and key calls on the same body.
func serveClient(r *run, c int, url string, deadline time.Time, hitBody []byte, warm []json.RawMessage, o *clientOut) {
	hc := newClient()
	defer hc.CloseIdleConnections()
	var hitRef []byte // a full hit body already checked against warm
	for j := 0; j < minOps || time.Now().Before(deadline); j++ {
		traced := r.traced() && j%2 == 1
		op := c<<20 | j
		for h := 0; h < hitsPerMiss; h++ {
			start := time.Now()
			status, body, err := post(hc, url, hitBody)
			end := time.Now()
			o.attempted++
			o.hitsSent++
			if err == nil && (status != http.StatusOK || hitRef == nil || !bytes.Equal(body, hitRef)) {
				err = checkHit(status, body, warm)
				if err == nil {
					hitRef = body
				}
			}
			if err != nil {
				o.fail("hit: %v", err)
				continue
			}
			o.hitsMatched++
			if !traced {
				o.hits = append(o.hits, ms(end.Sub(start)))
				continue
			}
			id := r.rec.add(0, op, "serve.request.hit", start, end)
			o.tracedHits = append(o.tracedHits, ms(end.Sub(start)))
			replayDecode(r, &o.lt, id, op, hitBody)
		}

		spec := serveSpec(fmt.Sprintf("miss-c%d-%d", c, j), deriveSeed(r.seed, "serve-miss", c, j), serveCycles)
		body := mustMarshal(serve.RunRequest{Scenarios: []serve.ScenarioSpec{spec}})
		start := time.Now()
		status, respBody, err := post(hc, url, body)
		end := time.Now()
		o.attempted++
		var resp *serve.RunResponse
		var wires []serve.ResultWire
		if err == nil {
			resp, wires, err = decodeBatch(status, respBody, 0, 1)
		}
		if err != nil {
			o.fail("miss %s: %v", spec.Name, err)
			continue
		}
		o.missKeys = append(o.missKeys, wires[0].Key)
		if j%missSampleEvery == 0 {
			o.samples = append(o.samples, missSample{spec, wires[0]})
		}
		if !traced {
			o.misses = append(o.misses, ms(end.Sub(start)))
			continue
		}
		id := r.rec.add(0, op, "serve.request.miss", start, end)
		wall := time.Duration(resp.Batch.WallSeconds * float64(time.Second))
		r.rec.add(id, op, "engine.Runner.Run", end.Add(-wall), end)
		replayDecode(r, &o.lt, id, op, body)
	}
}

// checkHit verifies an all-hit response: every result must be the exact
// bytes the warm-set miss returned when it filled the cache.
func checkHit(status int, body []byte, warm []json.RawMessage) error {
	resp, _, err := decodeBatch(status, body, warmScenarios, 0)
	if err != nil {
		return err
	}
	for i := range warm {
		if !bytes.Equal(resp.Results[i], warm[i]) {
			return fmt.Errorf("result %d differs from the bytes of the miss that cached it", i)
		}
	}
	return nil
}

// replayDecode repeats the server's per-request calls on a request body:
// the JSON decode, ScenarioSpec.Scenario, the ERC pass and CanonicalKey.
// Figures are per scenario.
func replayDecode(r *run, lt *layerTotals, parent, op int, body []byte) {
	var req serve.RunRequest
	var err error
	d := r.rec.time(parent, op, "serve.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil || len(req.Scenarios) == 0 {
		return
	}
	n := float64(len(req.Scenarios))
	lt.add("serve.decode_us", "us", us(d)/n)
	var validate, key time.Duration
	for i := range req.Scenarios {
		var sc engine.Scenario
		r.rec.time(parent, op, "serve.ScenarioSpec.Scenario", func() { sc, err = req.Scenarios[i].Scenario(i) })
		if err != nil {
			return
		}
		validate += r.rec.time(parent, op, "topo.Validate", func() { topo.Validate(sc.Topology()) })
		key += r.rec.time(parent, op, "engine.CanonicalKey", func() { sc.CanonicalKey() })
	}
	lt.add("topo.validate_us", "us", us(validate)/n)
	lt.add("engine.key_us", "us", us(key)/n)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sameWire reports how a served result differs from the engine's result
// for the same scenario, comparing energies by their exact bits.
func sameWire(ref *engine.Result, w *serve.ResultWire) error {
	if math.Float64bits(ref.Report.TotalEnergy) != math.Float64bits(w.TotalEnergy) {
		return fmt.Errorf("%s: energy %v, the engine %v", w.Name, w.TotalEnergy, ref.Report.TotalEnergy)
	}
	for k, v := range ref.Report.BlockEnergy {
		if math.Float64bits(v) != math.Float64bits(w.BlockEnergy[k]) {
			return fmt.Errorf("%s: block %s energy %v, the engine %v", w.Name, k, w.BlockEnergy[k], v)
		}
	}
	if ref.Beats != w.Beats || ref.Report.Cycles != w.Cycles {
		return fmt.Errorf("%s: %d beats in %d cycles, the engine %d in %d", w.Name, w.Beats, w.Cycles, ref.Beats, ref.Report.Cycles)
	}
	if !maps.Equal(ref.Counts, w.Counts) {
		return fmt.Errorf("%s: counts %v, the engine %v", w.Name, w.Counts, ref.Counts)
	}
	return nil
}
