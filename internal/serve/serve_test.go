package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ahbpower/internal/engine"
)

// wireResult mirrors the fields of ResultWire the tests assert on.
type wireResult struct {
	Name  string `json:"name"`
	Key   string `json:"key"`
	Error string `json:"error"`
}

// wireResponse keeps Results raw so byte-identity can be asserted.
type wireResponse struct {
	Results []json.RawMessage `json:"results"`
	Batch   struct {
		Scenarios   int `json:"scenarios"`
		Failed      int `json:"failed"`
		CacheHits   int `json:"cache_hits"`
		CacheMisses int `json:"cache_misses"`
		Uncacheable int `json:"uncacheable"`
	} `json:"batch"`
}

func post(h http.Handler, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	return rr
}

func decodeRun(t *testing.T, rr *httptest.ResponseRecorder) wireResponse {
	t.Helper()
	var resp wireResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v\nbody: %s", err, rr.Body.String())
	}
	return resp
}

func scenarioJSON(name string, cycles uint64, seed int64) string {
	return fmt.Sprintf(`{"name":%q,"cycles":%d,"workloads":[{"seed":%d,"sequences":3,"pairs_min":2,"pairs_max":6,"idle_min":2,"idle_max":8,"addr_size":4096}]}`,
		name, cycles, seed)
}

// TestCacheHitByteIdentical posts the same batch twice and asserts the
// second response's result bytes are identical to the first's — the
// content-addressed cache must be invisible in the payload.
func TestCacheHitByteIdentical(t *testing.T) {
	s := New(Config{Workers: 2})
	h := s.Handler()
	body := `{"scenarios":[` + scenarioJSON("ident", 2000, 7) + `]}`

	first := post(h, body)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: status %d, body %s", first.Code, first.Body.String())
	}
	r1 := decodeRun(t, first)
	if r1.Batch.CacheMisses != 1 || r1.Batch.CacheHits != 0 {
		t.Fatalf("first request: hits=%d misses=%d, want 0/1", r1.Batch.CacheHits, r1.Batch.CacheMisses)
	}

	second := post(h, body)
	if second.Code != http.StatusOK {
		t.Fatalf("second request: status %d", second.Code)
	}
	r2 := decodeRun(t, second)
	if r2.Batch.CacheHits != 1 || r2.Batch.CacheMisses != 0 {
		t.Fatalf("second request: hits=%d misses=%d, want 1/0", r2.Batch.CacheHits, r2.Batch.CacheMisses)
	}
	if string(r1.Results[0]) != string(r2.Results[0]) {
		t.Errorf("cached result is not byte-identical to the fresh one:\nfresh:  %s\ncached: %s",
			r1.Results[0], r2.Results[0])
	}

	// no_cache must bypass the lookup yet still produce the same bytes
	// (runs are deterministic).
	third := post(h, `{"no_cache":true,"scenarios":[`+scenarioJSON("ident", 2000, 7)+`]}`)
	r3 := decodeRun(t, third)
	if r3.Batch.CacheHits != 0 || r3.Batch.CacheMisses != 1 {
		t.Fatalf("no_cache request: hits=%d misses=%d, want 0/1", r3.Batch.CacheHits, r3.Batch.CacheMisses)
	}
	if string(r1.Results[0]) != string(r3.Results[0]) {
		t.Errorf("no_cache rerun differs from the original run:\n%s\n%s", r1.Results[0], r3.Results[0])
	}

	var res wireResult
	if err := json.Unmarshal(r1.Results[0], &res); err != nil || res.Error != "" || res.Key == "" {
		t.Errorf("result not clean: err=%v wire=%+v", err, res)
	}
}

// TestBackendCacheShared pins the serving side of the backend contract:
// the backend hint changes how a scenario executes, never what it
// computes, so a result cached from an event run must answer a compiled
// request (and vice versa) byte-identically, and the envelope — not the
// result — reports which backend fresh runs used.
func TestBackendCacheShared(t *testing.T) {
	s := New(Config{Workers: 2})
	h := s.Handler()
	spec := scenarioJSON("shared", 2000, 7)

	first := post(h, `{"backend":"event","scenarios":[`+spec+`]}`)
	if first.Code != http.StatusOK {
		t.Fatalf("event request: status %d, body %s", first.Code, first.Body.String())
	}
	var r1 struct {
		wireResponse
		Batch struct {
			CacheHits   int            `json:"cache_hits"`
			CacheMisses int            `json:"cache_misses"`
			Backends    map[string]int `json:"backends"`
			Fallbacks   []string       `json:"backend_fallbacks"`
		} `json:"batch"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Batch.CacheMisses != 1 || r1.Batch.Backends["event"] != 1 {
		t.Fatalf("event request: misses=%d backends=%v, want 1 miss run on event",
			r1.Batch.CacheMisses, r1.Batch.Backends)
	}

	// Same scenario, opposite backend: must be a cache hit with identical
	// bytes, and no backend accounting (nothing executed).
	second := post(h, `{"backend":"compiled","scenarios":[`+spec+`]}`)
	var r2 struct {
		wireResponse
		Batch struct {
			CacheHits int            `json:"cache_hits"`
			Backends  map[string]int `json:"backends"`
		} `json:"batch"`
	}
	if err := json.Unmarshal(second.Body.Bytes(), &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Batch.CacheHits != 1 || len(r2.Batch.Backends) != 0 {
		t.Fatalf("compiled request after event run: hits=%d backends=%v, want pure cache hit",
			r2.Batch.CacheHits, r2.Batch.Backends)
	}
	if string(r1.Results[0]) != string(r2.Results[0]) {
		t.Errorf("backend hint leaked into the result bytes:\nevent:    %s\ncompiled: %s",
			r1.Results[0], r2.Results[0])
	}

	// Forced fresh compiled run: same result bytes as the event run, and
	// the envelope says compiled executed.
	third := post(h, `{"no_cache":true,"backend":"compiled","scenarios":[`+spec+`]}`)
	var r3 struct {
		wireResponse
		Batch struct {
			Backends  map[string]int `json:"backends"`
			Fallbacks []string       `json:"backend_fallbacks"`
		} `json:"batch"`
	}
	if err := json.Unmarshal(third.Body.Bytes(), &r3); err != nil {
		t.Fatal(err)
	}
	if r3.Batch.Backends["compiled"] != 1 || len(r3.Batch.Fallbacks) != 0 {
		t.Fatalf("fresh compiled run: backends=%v fallbacks=%v, want compiled:1 and no fallback",
			r3.Batch.Backends, r3.Batch.Fallbacks)
	}
	if string(r1.Results[0]) != string(r3.Results[0]) {
		t.Errorf("compiled run differs from event run:\n%s\n%s", r1.Results[0], r3.Results[0])
	}

	// A private-style scenario cannot run compiled: it must fall back to
	// event and say so in the envelope.
	private := `{"name":"private","cycles":1500,"analyzer":{"style":"private"},` +
		`"workloads":[{"seed":7,"sequences":3,"pairs_min":2,"pairs_max":6,"idle_min":2,"idle_max":8,"addr_size":4096}],` +
		`"backend":"compiled"}`
	fourth := post(h, `{"scenarios":[`+private+`]}`)
	var r4 struct {
		Batch struct {
			Backends  map[string]int `json:"backends"`
			Fallbacks []string       `json:"backend_fallbacks"`
		} `json:"batch"`
	}
	if err := json.Unmarshal(fourth.Body.Bytes(), &r4); err != nil {
		t.Fatal(err)
	}
	if r4.Batch.Backends["event"] != 1 || len(r4.Batch.Fallbacks) != 1 ||
		!strings.Contains(r4.Batch.Fallbacks[0], "private-style") {
		t.Errorf("private-style scenario: backends=%v fallbacks=%v, want event:1 with a private-style fallback reason",
			r4.Batch.Backends, r4.Batch.Fallbacks)
	}

	// Unknown backend names are rejected at decode, wherever they appear.
	for _, body := range []string{
		`{"backend":"turbo","scenarios":[` + spec + `]}`,
		`{"scenarios":[{"name":"x","cycles":100,"backend":"turbo"}]}`,
	} {
		if rr := post(h, body); rr.Code != http.StatusBadRequest {
			t.Errorf("bad backend accepted: status %d for %s", rr.Code, body)
		}
	}
}

// TestQueueFullRejects fills the execution slot and the bounded queue,
// then asserts the next request gets 503 with a Retry-After header while
// the queued request still completes once the slot frees up.
func TestQueueFullRejects(t *testing.T) {
	s := New(Config{Workers: 1, MaxConcurrent: 1, MaxQueue: 1})
	h := s.Handler()

	// Occupy the only execution slot so the next miss has to queue.
	s.slots <- struct{}{}

	queued := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		queued <- post(h, `{"scenarios":[`+scenarioJSON("queued", 1000, 1)+`]}`)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.waiting.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never entered the admission queue")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Queue is now at capacity: the next cache miss must bounce.
	rr := post(h, `{"scenarios":[`+scenarioJSON("rejected", 1000, 2)+`]}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-queue request: status %d, want 503; body %s", rr.Code, rr.Body.String())
	}
	if ra := rr.Header().Get("Retry-After"); ra == "" {
		t.Error("503 response is missing Retry-After")
	}
	resp := decodeRun(t, rr)
	var res wireResult
	if err := json.Unmarshal(resp.Results[0], &res); err != nil || res.Error == "" {
		t.Errorf("rejected scenario should carry the admission error, got %s", resp.Results[0])
	}
	if s.ctr.rejectedBusy.Value() != 1 {
		t.Errorf("rejected_busy = %d, want 1", s.ctr.rejectedBusy.Value())
	}

	// Release the slot: the queued request must finish normally.
	<-s.slots
	select {
	case done := <-queued:
		if done.Code != http.StatusOK {
			t.Fatalf("queued request: status %d, body %s", done.Code, done.Body.String())
		}
		qr := decodeRun(t, done)
		var qres wireResult
		if err := json.Unmarshal(qr.Results[0], &qres); err != nil || qres.Error != "" {
			t.Errorf("queued scenario failed: %s", qr.Results[0])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued request never completed after the slot was released")
	}
}

// TestDeadlineReturnsPartialResults runs a batch whose tail cannot finish
// inside the request deadline and asserts the response still carries the
// completed scenario cleanly, with the unfinished ones erroring — PR 3's
// cancellation semantics surfaced over HTTP.
func TestDeadlineReturnsPartialResults(t *testing.T) {
	s := New(Config{Workers: 1, MaxConcurrent: 1})
	h := s.Handler()
	body := `{"timeout_ms":500,"scenarios":[` +
		scenarioJSON("fast", 500, 3) + `,` +
		scenarioJSON("slow-1", 20_000_000, 4) + `,` +
		scenarioJSON("slow-2", 20_000_000, 5) + `]}`

	rr := post(h, body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 with partial results; body %s", rr.Code, rr.Body.String())
	}
	resp := decodeRun(t, rr)
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	results := make([]wireResult, 3)
	for i, raw := range resp.Results {
		if err := json.Unmarshal(raw, &results[i]); err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
	}
	if results[0].Error != "" {
		t.Errorf("fast scenario should have completed before the deadline: %q", results[0].Error)
	}
	if results[2].Error == "" {
		t.Error("slow tail scenario should carry the deadline error")
	}
	if resp.Batch.Failed < 1 {
		t.Errorf("batch failed count %d, want >= 1", resp.Batch.Failed)
	}
	// Only successful runs may be cached; cancellations must re-run.
	if n := s.cache.size(); n != 1 {
		t.Errorf("cache holds %d entries after a partial batch, want only the completed one", n)
	}
}

// TestSIGTERMGracefulDrain delivers a real SIGTERM (via the same
// signal.NotifyContext wiring cmd/ahbserved uses) while an async batch is
// mid-flight, drains, and asserts completed scenarios were flushed into
// the job's response while the server refuses new work.
func TestSIGTERMGracefulDrain(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	s := New(Config{Workers: 1, MaxConcurrent: 1})
	h := s.Handler()
	body := `{"async":true,"timeout_ms":600000,"scenarios":[` +
		scenarioJSON("quick", 2000, 8) + `,` +
		scenarioJSON("endless", 40_000_000, 9) + `]}`
	rr := post(h, body)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("async submit: status %d, body %s", rr.Code, rr.Body.String())
	}
	var accepted struct {
		JobID string `json:"job_id"`
		URL   string `json:"url"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &accepted); err != nil || accepted.JobID == "" {
		t.Fatalf("bad 202 body: %v, %s", err, rr.Body.String())
	}

	// Wait until the quick scenario has finished executing, so the drain
	// provably interrupts a half-done batch.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var st JobStatus
		if err := json.Unmarshal(get(h, accepted.URL).Body.Bytes(), &st); err != nil {
			t.Fatalf("polling job: %v", err)
		}
		if st.Completed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first scenario never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("sending SIGTERM: %v", err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM was not observed")
	}
	s.Drain(50 * time.Millisecond) // grace far shorter than the endless run

	// Drained: no new work, health reports it.
	if rr := get(h, "/healthz"); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz while drained: status %d, want 503", rr.Code)
	}
	if rr := post(h, `{"scenarios":[`+scenarioJSON("late", 1000, 10)+`]}`); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("post while drained: status %d, want 503", rr.Code)
	}

	// The interrupted job flushed its completed scenario.
	var st JobStatus
	if err := json.Unmarshal(get(h, accepted.URL).Body.Bytes(), &st); err != nil {
		t.Fatalf("reading drained job: %v", err)
	}
	if st.Status != JobCancelled {
		t.Fatalf("job status %q, want %q", st.Status, JobCancelled)
	}
	if st.Response == nil || len(st.Response.Results) != 2 {
		t.Fatalf("drained job has no full response: %+v", st)
	}
	var quick, endless wireResult
	if err := json.Unmarshal(st.Response.Results[0], &quick); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(st.Response.Results[1], &endless); err != nil {
		t.Fatal(err)
	}
	if quick.Error != "" {
		t.Errorf("completed scenario was dropped by the drain: %q", quick.Error)
	}
	if endless.Error == "" {
		t.Error("interrupted scenario should carry the cancellation error")
	}
}

// TestConcurrentRequests is the acceptance load: hundreds of concurrent
// requests against a small slot pool, no dropped completed results.
func TestConcurrentRequests(t *testing.T) {
	const n = 200
	s := New(Config{Workers: 2, MaxConcurrent: 2, MaxQueue: n})
	h := s.Handler()

	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// 8 distinct scenarios rotate, so the run mixes fresh
			// executions with cache hits under contention.
			rr := post(h, `{"scenarios":[`+scenarioJSON(fmt.Sprintf("load-%d", i%8), 500, int64(i%8))+`]}`)
			codes[i] = rr.Code
			bodies[i] = rr.Body.String()
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, codes[i], bodies[i])
		}
		var resp wireResponse
		if err := json.Unmarshal([]byte(bodies[i]), &resp); err != nil || len(resp.Results) != 1 {
			t.Fatalf("request %d: bad body %s", i, bodies[i])
		}
		var res wireResult
		if err := json.Unmarshal(resp.Results[0], &res); err != nil || res.Error != "" {
			t.Fatalf("request %d: scenario error %s", i, resp.Results[0])
		}
	}
	// Every scenario was either served from cache or executed — nothing
	// dropped. (All-miss is possible: concurrent requests may all check
	// the cache before the first run completes.)
	if hits, run := s.ctr.cacheHits.Value(), s.ctr.scenariosRun.Value(); hits+run != n {
		t.Errorf("cache_hits(%d) + scenarios_run(%d) = %d, want %d", hits, run, hits+run, n)
	}
	if got := s.ctr.requests.Value(); got != n {
		t.Errorf("requests_total = %d, want %d", got, n)
	}
}

// badAnalyzerConstants are scenarios whose analyzer constants would make
// every reported energy meaningless; the decoder refuses each one.
var badAnalyzerConstants = []struct{ name, body string }{
	{"negative cpd", `{"scenarios":[{"cycles":100,"analyzer":{"tech":{"vdd_V":1.8,"cpd_F":-3.2e-13,"co_F":5.3e-13}}}]}`},
	{"partial tech", `{"scenarios":[{"cycles":100,"analyzer":{"tech":{"vdd_V":1.2}}}]}`},
	{"zero vdd", `{"scenarios":[{"cycles":100,"analyzer":{"tech":{"vdd_V":0,"cpd_F":1e-12,"co_F":1e-12}}}]}`},
	{"negative wake energy", `{"scenarios":[{"cycles":100,"analyzer":{"dpm":{"idle_threshold":4,"wake_energy_J":-1e-9}}}]}`},
}

// TestBadRequests covers the 400 paths of decodeRun.
func TestBadRequests(t *testing.T) {
	s := New(Config{Workers: 1, MaxCycles: 1000})
	h := s.Handler()
	cases := []struct {
		name, body string
	}{
		{"empty batch", `{"scenarios":[]}`},
		{"unknown field", `{"scenario":[{"cycles":100}]}`},
		{"zero cycles", `{"scenarios":[{"name":"z"}]}`},
		{"cycles over limit", `{"scenarios":[{"name":"big","cycles":2000}]}`},
		{"bad policy", `{"scenarios":[{"cycles":100,"topology":{"masters":[{}],"slaves":[{"regions":[{"start":0,"size":1024}]}],"policy":"nope"}}]}`},
		{"system alias", `{"scenarios":[{"cycles":100,"system":{"masters":2,"slaves":1}}]}`},
		{"bad pattern", `{"scenarios":[{"cycles":100,"workloads":[{"seed":1,"pattern":"nope"}]}]}`},
		{"fail_first", `{"scenarios":[{"cycles":100,"faults":{"seed":1,"fail_first":1}}]}`},
		{"trace_window_s", `{"scenarios":[{"cycles":100,"analyzer":{"trace_window_s":1e-6}}]}`},
		{"record_activity", `{"scenarios":[{"cycles":100,"analyzer":{"record_activity":true}}]}`},
		{"not json", `scenario please`},
	}
	cases = append(cases, badAnalyzerConstants...)
	for _, c := range cases {
		if rr := post(h, c.body); rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", c.name, rr.Code, rr.Body.String())
		}
	}
	if got := s.ctr.badRequests.Value(); got != int64(len(cases)) {
		t.Errorf("bad_requests = %d, want %d", got, len(cases))
	}
}

// TestJobLifecycle walks an async job from 202 to done.
func TestJobLifecycle(t *testing.T) {
	s := New(Config{Workers: 2})
	h := s.Handler()
	rr := post(h, `{"async":true,"scenarios":[`+scenarioJSON("job", 2000, 11)+`]}`)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("status %d, want 202", rr.Code)
	}
	var accepted struct {
		JobID string `json:"job_id"`
		URL   string `json:"url"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &accepted); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		var st JobStatus
		if err := json.Unmarshal(get(h, accepted.URL).Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == JobDone {
			if st.Completed != 1 || st.Response == nil || len(st.Response.Results) != 1 {
				t.Fatalf("done job malformed: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rr := get(h, "/v1/jobs/job-999999"); rr.Code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", rr.Code)
	}
}

// TestMetricsEndpoint sanity-checks the expvar rendering.
func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{Workers: 1})
	h := s.Handler()
	post(h, `{"scenarios":[`+scenarioJSON("m", 1000, 12)+`]}`)
	rr := get(h, "/metrics")
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rr.Code)
	}
	var vars map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &vars); err != nil {
		t.Fatalf("metrics body is not JSON: %v\n%s", err, rr.Body.String())
	}
	for _, key := range []string{"requests_total", "batches_total", "cache_misses", "scenarios_run", "cache_size"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	if vars["scenarios_run"].(float64) != 1 {
		t.Errorf("scenarios_run = %v, want 1", vars["scenarios_run"])
	}
}

// TestLaneBackendServed drives the retired lane backend's hint through
// the wire format: "lanes" is still accepted, runs on the compiled
// stepper with one surfaced fallback per scenario, and returns bytes
// identical to the same batch recomputed on the event backend. The lane
// counters are gone from /metrics.
func TestLaneBackendServed(t *testing.T) {
	s := New(Config{Workers: 2})
	h := s.Handler()
	specs := scenarioJSON("lane-a", 2000, 7) + `,` + scenarioJSON("lane-b", 1500, 8)

	first := post(h, `{"backend":"lanes","scenarios":[`+specs+`]}`)
	if first.Code != http.StatusOK {
		t.Fatalf("lanes request: status %d, body %s", first.Code, first.Body.String())
	}
	var r1 struct {
		wireResponse
		Batch struct {
			Backends  map[string]int `json:"backends"`
			Fallbacks []string       `json:"backend_fallbacks"`
		} `json:"batch"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &r1); err != nil {
		t.Fatal(err)
	}
	wantFallbacks := []string{"lane-a: " + engine.LanesRetired, "lane-b: " + engine.LanesRetired}
	if r1.Batch.Backends["compiled"] != 2 || !slices.Equal(r1.Batch.Fallbacks, wantFallbacks) {
		t.Fatalf("lanes request: backends=%v fallbacks=%v, want compiled:2 and %v",
			r1.Batch.Backends, r1.Batch.Fallbacks, wantFallbacks)
	}

	second := post(h, `{"no_cache":true,"backend":"event","scenarios":[`+specs+`]}`)
	var r2 wireResponse
	if err := json.Unmarshal(second.Body.Bytes(), &r2); err != nil {
		t.Fatal(err)
	}
	for i := range r1.Results {
		if string(r1.Results[i]) != string(r2.Results[i]) {
			t.Errorf("lanes-hinted result %d differs from the event recompute:\n%s\n%s",
				i, r1.Results[i], r2.Results[i])
		}
	}

	rr := get(h, "/metrics")
	var vars map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &vars); err != nil {
		t.Fatalf("metrics body is not JSON: %v", err)
	}
	if vars["backend_compiled_runs"].(float64) != 2 || vars["backend_fallbacks"].(float64) != 2 {
		t.Errorf("backend_compiled_runs = %v, backend_fallbacks = %v, want 2 and 2",
			vars["backend_compiled_runs"], vars["backend_fallbacks"])
	}
	for _, gone := range []string{"backend_lane_runs", "lane_occupancy"} {
		if _, ok := vars[gone]; ok {
			t.Errorf("/metrics still exports %q", gone)
		}
	}
}
