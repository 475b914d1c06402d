package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ahbpower/internal/engine"
)

// metricInt reads one counter out of the server's metrics JSON.
func metricInt(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(s.MetricsJSON()), &m); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	raw, ok := m[name]
	if !ok {
		t.Fatalf("metric %q not exported", name)
	}
	var v int64
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("metric %q: %v", name, err)
	}
	return v
}

func mustOpen(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// pollJob polls an async job until it reaches a terminal status.
func pollJob(t *testing.T, h http.Handler, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		rr := get(h, "/v1/jobs/"+id)
		if rr.Code != http.StatusOK {
			t.Fatalf("job %s: status %d, body %s", id, rr.Code, rr.Body.String())
		}
		var st JobStatus
		if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
			t.Fatalf("decoding job status: %v", err)
		}
		if st.Status == JobDone || st.Status == JobCancelled {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, st.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStateDirRoundTrip runs an async batch to completion on a state
// dir, restarts the server on the same dir, and asserts the finished job
// is still queryable with its original result bytes and that the same
// scenario answers from the disk cache tier byte-identically.
func TestStateDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	body := `{"async":true,"scenarios":[` + scenarioJSON("durable", 2000, 7) + `]}`

	s1 := mustOpen(t, Config{Workers: 2, StateDir: dir})
	h1 := s1.Handler()
	rr := post(h1, body)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("async post: status %d, body %s", rr.Code, rr.Body.String())
	}
	var acc map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &acc); err != nil {
		t.Fatalf("decoding 202: %v", err)
	}
	id := acc["job_id"]
	st1 := pollJob(t, h1, id)
	if st1.Status != JobDone {
		t.Fatalf("job finished %q, want done", st1.Status)
	}
	s1.Drain(time.Second)

	if ents, err := os.ReadDir(filepath.Join(dir, "results")); err != nil || len(ents) == 0 {
		t.Fatalf("no disk-cached results after drain (err=%v)", err)
	}

	// Restart: the retired job must answer under its original id with the
	// same result bytes, without re-running anything.
	s2 := mustOpen(t, Config{Workers: 2, StateDir: dir})
	h2 := s2.Handler()
	if n := metricInt(t, s2, "jobs_recovered"); n != 0 {
		t.Errorf("jobs_recovered = %d after clean shutdown, want 0", n)
	}
	st2 := pollJob(t, h2, id)
	if st2.Status != JobDone || st2.Response == nil || st1.Response == nil {
		t.Fatalf("restored job: %+v", st2)
	}
	if string(st1.Response.Results[0]) != string(st2.Response.Results[0]) {
		t.Errorf("restored job response differs:\nbefore: %s\nafter:  %s",
			st1.Response.Results[0], st2.Response.Results[0])
	}

	// A fresh sync request for the same scenario must hit the disk tier.
	sync := post(h2, `{"scenarios":[`+scenarioJSON("durable", 2000, 7)+`]}`)
	r := decodeRun(t, sync)
	if r.Batch.CacheHits != 1 {
		t.Fatalf("restarted server: cache hits = %d, want 1 (from disk)", r.Batch.CacheHits)
	}
	if n := metricInt(t, s2, "disk_cache_hits"); n != 1 {
		t.Errorf("disk_cache_hits = %d, want 1", n)
	}
	if string(r.Results[0]) != string(st1.Response.Results[0]) {
		t.Errorf("disk-cached result differs from the original run:\n%s\n%s",
			r.Results[0], st1.Response.Results[0])
	}
	s2.Drain(time.Second)
}

// TestCrashRecoveryResumesJob emulates a crash: an "accepted" journal
// entry with no retirement, plus a mid-run checkpoint a dead process
// left behind. Opening a server on that state dir must re-admit the job
// under its original id, resume the scenario from the checkpoint, and
// produce result bytes identical to an uninterrupted run.
func TestCrashRecoveryResumesJob(t *testing.T) {
	const spec = `{"async":true,"scenarios":[{"name":"crashy","cycles":3000,"workloads":[{"seed":9,"sequences":3,"pairs_min":2,"pairs_max":6,"idle_min":2,"idle_max":8,"addr_size":4096}]}]}`
	var req RunRequest
	if err := json.Unmarshal([]byte(spec), &req); err != nil {
		t.Fatalf("decoding request: %v", err)
	}
	sc, err := req.Scenarios[0].Scenario(0)
	if err != nil {
		t.Fatalf("resolving scenario: %v", err)
	}
	key, ok := sc.CanonicalKey()
	if !ok {
		t.Fatal("scenario not cacheable")
	}

	// The uninterrupted control result, via a stateless server (same
	// marshaling path).
	ctl := New(Config{Workers: 2})
	ctlResp := decodeRun(t, post(ctl.Handler(), `{"scenarios":[`+spec[len(`{"async":true,"scenarios":[`):]))
	if len(ctlResp.Results) != 1 {
		t.Fatalf("control: %d results", len(ctlResp.Results))
	}

	// Capture a genuine mid-run checkpoint the way a crashed daemon would
	// have persisted one.
	var blob []byte
	var at uint64
	stop := errors.New("captured")
	crash := sc
	crash.Checkpoint = &engine.CheckpointConfig{Every: 512, Save: func(cycle uint64, snapshot []byte) error {
		blob, at = snapshot, cycle
		return stop
	}}
	if res := engine.RunOne(context.Background(), crash); res.Err == nil || !errors.Is(res.Err, stop) {
		t.Fatalf("checkpoint capture run: %v", res.Err)
	}
	if at == 0 || at >= sc.Cycles {
		t.Fatalf("checkpoint at cycle %d of %d", at, sc.Cycles)
	}

	// Forge the dead daemon's state dir: journal with an unretired
	// acceptance, checkpoint on disk, no cached result.
	dir := t.TempDir()
	st, err := openState(dir)
	if err != nil {
		t.Fatalf("openState: %v", err)
	}
	if err := st.append(journalEntry{T: journalAccepted, Job: "job-000007", Req: &req}); err != nil {
		t.Fatalf("journal: %v", err)
	}
	if err := st.storeCheckpoint(key, blob); err != nil {
		t.Fatalf("storeCheckpoint: %v", err)
	}
	st.close()

	s := mustOpen(t, Config{Workers: 2, StateDir: dir, CheckpointEvery: 512})
	h := s.Handler()
	if n := metricInt(t, s, "jobs_recovered"); n != 1 {
		t.Fatalf("jobs_recovered = %d, want 1", n)
	}
	stDone := pollJob(t, h, "job-000007")
	if stDone.Status != JobDone || stDone.Response == nil {
		t.Fatalf("recovered job: %+v", stDone)
	}
	if string(stDone.Response.Results[0]) != string(ctlResp.Results[0]) {
		t.Errorf("recovered result differs from uninterrupted control:\ngot  %s\nwant %s",
			stDone.Response.Results[0], ctlResp.Results[0])
	}
	if n := metricInt(t, s, "scenarios_resumed"); n != 1 {
		t.Errorf("scenarios_resumed = %d, want 1", n)
	}
	// The superseded checkpoint is gone, the result is on disk, and the
	// next id never collides with the recovered one.
	if _, err := os.Stat(st.checkpointPath(key)); !os.IsNotExist(err) {
		t.Errorf("checkpoint not dropped after completion (err=%v)", err)
	}
	if j := s.jobs.create(1); j.id != "job-000008" {
		t.Errorf("next id after recovery = %s, want job-000008", j.id)
	}
	s.Drain(time.Second)
}

// TestRecoveredJobRefusalReachesPoll journals an accepted job that the
// limits in force at the next start refuse. Polling it must show the job
// cancelled with the refusal as the status's error and no response, both
// in the process that refused it and after another restart, which reads
// the refusal back from the journal.
func TestRecoveredJobRefusalReachesPoll(t *testing.T) {
	var req RunRequest
	if err := json.Unmarshal([]byte(`{"async":true,"scenarios":[{"name":"long","cycles":5000}]}`), &req); err != nil {
		t.Fatalf("decoding request: %v", err)
	}
	dir := t.TempDir()
	st, err := openState(dir)
	if err != nil {
		t.Fatalf("openState: %v", err)
	}
	if err := st.append(journalEntry{T: journalAccepted, Job: "job-000003", Req: &req}); err != nil {
		t.Fatalf("journal: %v", err)
	}
	st.close()

	const want = `scenario "long": 5000 cycles exceeds the per-scenario limit 1000`
	for start := 1; start <= 2; start++ {
		s := mustOpen(t, Config{Workers: 1, StateDir: dir, MaxCycles: 1000})
		rr := get(s.Handler(), "/v1/jobs/job-000003")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(rr.Body.Bytes(), &raw); err != nil {
			t.Fatalf("start %d: decoding %s: %v", start, rr.Body.Bytes(), err)
		}
		var got JobStatus
		if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
			t.Fatalf("start %d: %v", start, err)
		}
		if _, has := raw["response"]; rr.Code != http.StatusOK || got.Status != JobCancelled || got.Error != want || has {
			t.Errorf("start %d: poll %d %s, want cancelled with error %q and no response", start, rr.Code, rr.Body.Bytes(), want)
		}
		s.Drain(time.Second)
	}
}

// TestCorruptCheckpointRunsFresh plants checkpoints that do not decode
// — a torn write and one from an unknown snapshot version — under a
// scenario's key. The scenario must not fail on them: the server deletes
// the file, counts it as state_corrupt and runs from cycle 0, answering
// byte-identically to a fresh run.
func TestCorruptCheckpointRunsFresh(t *testing.T) {
	const spec = `{"name":"torn","cycles":3000,"workloads":[{"seed":5,"sequences":3,"pairs_min":2,"pairs_max":6,"idle_min":2,"idle_max":8,"addr_size":4096}]}`
	var req RunRequest
	if err := json.Unmarshal([]byte(`{"scenarios":[`+spec+`]}`), &req); err != nil {
		t.Fatalf("decoding request: %v", err)
	}
	sc, err := req.Scenarios[0].Scenario(0)
	if err != nil {
		t.Fatalf("resolving scenario: %v", err)
	}
	key, ok := sc.CanonicalKey()
	if !ok {
		t.Fatal("scenario not cacheable")
	}
	var blob []byte
	stop := errors.New("captured")
	sc.Checkpoint = &engine.CheckpointConfig{Every: 512, Save: func(_ uint64, snapshot []byte) error {
		blob = snapshot
		return stop
	}}
	if res := engine.RunOne(context.Background(), sc); !errors.Is(res.Err, stop) {
		t.Fatalf("checkpoint capture run: %v", res.Err)
	}
	want := decodeRun(t, post(New(Config{Workers: 1}).Handler(), `{"scenarios":[`+spec+`]}`)).Results[0]

	for name, planted := range map[string][]byte{
		"truncated": blob[:len(blob)/2],
		"version-0": []byte(`{"version":0,"cycle":1024}`),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := openState(dir)
			if err != nil {
				t.Fatalf("openState: %v", err)
			}
			if err := st.storeCheckpoint(key, planted); err != nil {
				t.Fatalf("storeCheckpoint: %v", err)
			}
			st.close()

			s := mustOpen(t, Config{Workers: 1, StateDir: dir, CheckpointEvery: 512})
			defer s.Drain(time.Second)
			got := decodeRun(t, post(s.Handler(), `{"scenarios":[`+spec+`]}`)).Results[0]
			if string(got) != string(want) {
				t.Errorf("result over a corrupt checkpoint differs from a fresh run:\ngot  %s\nwant %s", got, want)
			}
			if n := metricInt(t, s, "state_corrupt"); n != 1 {
				t.Errorf("state_corrupt = %d, want 1", n)
			}
			if n := metricInt(t, s, "scenarios_resumed"); n != 0 {
				t.Errorf("scenarios_resumed = %d, want 0", n)
			}
			if _, err := os.Stat(st.checkpointPath(key)); !os.IsNotExist(err) {
				t.Errorf("corrupt checkpoint still on disk (err=%v)", err)
			}
		})
	}
}

// TestDrainJournalsCancelledJob pins the drain satellite: a SIGTERM-style
// drain that interrupts an async job must journal the cancelled terminal
// state, so a restarted daemon reports the job cancelled instead of
// silently re-running it.
func TestDrainJournalsCancelledJob(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, Config{Workers: 1, StateDir: dir})
	h1 := s1.Handler()
	rr := post(h1, `{"async":true,"timeout_ms":60000,"scenarios":[`+scenarioJSON("drainy", 40_000_000, 3)+`]}`)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("async post: status %d, body %s", rr.Code, rr.Body.String())
	}
	var acc map[string]string
	_ = json.Unmarshal(rr.Body.Bytes(), &acc)
	s1.Drain(0) // no grace: cancel the in-flight job immediately

	s2 := mustOpen(t, Config{Workers: 1, StateDir: dir})
	if n := metricInt(t, s2, "jobs_recovered"); n != 0 {
		t.Errorf("jobs_recovered = %d, want 0 (drain journaled the retirement)", n)
	}
	st := pollJob(t, s2.Handler(), acc["job_id"])
	if st.Status != JobCancelled {
		t.Errorf("restored job status %q, want cancelled", st.Status)
	}
	s2.Drain(time.Second)
}

// TestJournalReplayIdempotent folds the same journal content twice (as
// if two daemon lifetimes re-journaled the same job) and asserts replay
// still yields exactly one job in its terminal state.
func TestJournalReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	st, err := openState(dir)
	if err != nil {
		t.Fatalf("openState: %v", err)
	}
	req := &RunRequest{}
	_ = json.Unmarshal([]byte(`{"scenarios":[`+scenarioJSON("idem", 1000, 1)+`]}`), req)
	resp := json.RawMessage(`{"results":[]}`)
	for i := 0; i < 2; i++ { // the same lifetime twice
		if err := st.append(journalEntry{T: journalAccepted, Job: "job-000003", Req: req}); err != nil {
			t.Fatalf("journal: %v", err)
		}
		if err := st.append(journalEntry{T: journalRetired, Job: "job-000003", Status: JobDone, Response: resp}); err != nil {
			t.Fatalf("journal: %v", err)
		}
	}
	// Plus a torn final line, as a crash mid-append would leave.
	st.mu.Lock()
	st.f.WriteString(`{"t":"accepted","job":"job-0000`)
	st.mu.Unlock()
	rs, err := st.replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(rs.pending) != 0 || len(rs.finished) != 1 {
		t.Fatalf("replay: %d pending, %d finished; want 0/1", len(rs.pending), len(rs.finished))
	}
	if rs.finished[0].id != "job-000003" || rs.finished[0].status != JobDone || rs.finished[0].total != 1 {
		t.Errorf("replayed job: %+v", rs.finished[0])
	}
	if rs.next != 3 {
		t.Errorf("replayed next = %d, want 3", rs.next)
	}
	st.close()
}

// TestJournalReplayIgnoresRetiredFields replays accepted jobs that still
// carry retired knobs: a fault plan's fail_first, and the analyzer's
// trace_window_s and record_activity. Replay decodes leniently, unlike
// the request decoder, so each job is re-admitted without the fields and
// completes instead of failing the daemon's start; the traced job re-runs
// under the key of its option-free twin.
func TestJournalReplayIgnoresRetiredFields(t *testing.T) {
	dir := t.TempDir()
	lines := `{"t":"accepted","job":"job-000001","req":{"scenarios":[` +
		`{"name":"old","cycles":1000,"faults":{"seed":1,"fail_first":1}}]}}` + "\n" +
		`{"t":"accepted","job":"job-000002","req":{"scenarios":[` +
		`{"name":"traced","cycles":1000,"analyzer":{"trace_window_s":1e-6,"record_activity":true}}]}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, Config{Workers: 1, StateDir: dir})
	defer s.Drain(time.Second)
	h := s.Handler()
	var res wireResult
	for _, id := range []string{"job-000001", "job-000002"} {
		st := pollJob(t, h, id)
		if st.Status != JobDone || st.Response == nil || len(st.Response.Results) != 1 {
			t.Fatalf("recovered %s: %+v", id, st)
		}
		if err := json.Unmarshal(st.Response.Results[0], &res); err != nil || res.Error != "" {
			t.Fatalf("recovered %s scenario: err=%v result=%s", id, err, st.Response.Results[0])
		}
	}
	var plain ValidateResponse
	if err := json.Unmarshal(postPath(h, "/v1/validate",
		`{"scenarios":[{"name":"traced","cycles":1000}]}`).Body.Bytes(), &plain); err != nil || !plain.Valid {
		t.Fatalf("validate plain twin: err=%v resp=%+v", err, plain)
	}
	if res.Key != plain.Results[0].Key {
		t.Errorf("replayed traced job key %s, option-free key %s", res.Key, plain.Results[0].Key)
	}
}

// TestCheckpointArmingFollowsPlan checks checkpoints are armed by the
// scenario's plan, not its hint: under a lanes hint a private-style
// scenario plans onto the event kernel and a global-style twin onto the
// compiled stepper, and both are armed, while a transaction twin
// estimates unarmed. None counts as a checkpoint fallback.
func TestCheckpointArmingFollowsPlan(t *testing.T) {
	s := mustOpen(t, Config{Workers: 2, StateDir: t.TempDir(), CheckpointEvery: 512})
	const wl = `"workloads":[{"seed":4,"sequences":3,"pairs_min":2,"pairs_max":6,"idle_min":2,"idle_max":8,"addr_size":4096}]`
	rr := post(s.Handler(), `{"backend":"lanes","scenarios":[`+
		`{"name":"private","cycles":1200,"analyzer":{"style":"private"},`+wl+`},`+
		`{"name":"global","cycles":1200,`+wl+`},`+
		`{"name":"estimate","cycles":1200,"accuracy":"transaction",`+wl+`}]}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var resp struct {
		Batch struct {
			Backends map[string]int `json:"backends"`
		} `json:"batch"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if b := resp.Batch.Backends; b["event"] != 1 || b["compiled"] != 1 || b["tlm"] != 1 {
		t.Errorf("backends = %v, want event:1 compiled:1 tlm:1", b)
	}
	// Two armed 1200-cycle scenarios each save at cycles 512 and 1024.
	if n := metricInt(t, s, "checkpoints_saved"); n != 4 {
		t.Errorf("checkpoints_saved = %d, want 4", n)
	}
	if n := metricInt(t, s, "checkpoint_fallbacks"); n != 0 {
		t.Errorf("checkpoint_fallbacks = %d, want 0", n)
	}
	s.Drain(time.Second)
}

// TestConcurrentCheckpointWritesOfOneKey stores checkpoints of one key
// from eight writers at once while a reader loads it. Every write must
// succeed, every read must see nothing or one complete payload, and no
// temporary file may be left behind.
func TestConcurrentCheckpointWritesOfOneKey(t *testing.T) {
	st, err := openState(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	key := strings.Repeat("ab", 32)
	const writers, writes = 8, 300
	payloads := make([][]byte, writers)
	for w := range payloads {
		payloads[w] = bytes.Repeat([]byte{byte('a' + w)}, 4096+512*w)
	}
	isPayload := func(b []byte) bool {
		return slices.ContainsFunc(payloads, func(p []byte) bool { return bytes.Equal(p, b) })
	}

	var wg sync.WaitGroup
	var failed sync.Map
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range writes {
				if err := st.storeCheckpoint(key, payloads[w]); err != nil {
					failed.Store(err.Error(), true)
				}
			}
		}()
	}
	stop := make(chan struct{})
	tornReads := make(chan int)
	go func() {
		torn := 0
		for {
			select {
			case <-stop:
				tornReads <- torn
				return
			default:
			}
			if b := st.loadCheckpoint(key); b != nil && !isPayload(b) {
				torn++
			}
		}
	}()
	wg.Wait()
	close(stop)
	torn := <-tornReads

	failed.Range(func(k, _ any) bool {
		t.Errorf("store failed: %v", k)
		return true
	})
	if torn > 0 {
		t.Errorf("%d reads matched no written payload", torn)
	}
	if b := st.loadCheckpoint(key); !isPayload(b) {
		t.Errorf("final checkpoint (%d bytes) is no written payload", len(b))
	}
	left, _ := filepath.Glob(filepath.Join(st.dir, "checkpoints", "*.tmp"))
	if len(left) > 0 {
		t.Errorf("temporary files left behind: %v", left)
	}
}

// TestOpenStateRemovesStaleTempFiles reopens a state dir in which a crash
// left temporary files of interrupted writes: they are removed, and the
// results and checkpoints beside them are kept.
func TestOpenStateRemovesStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := openState(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("cd", 32)
	if err := st.storeResult(key, []byte("result")); err != nil {
		t.Fatal(err)
	}
	if err := st.storeCheckpoint(key, []byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	st.close()
	stale := []string{
		filepath.Join(dir, "results", key+".json.123.tmp"),
		filepath.Join(dir, "checkpoints", key+".ckpt.456.tmp"),
	}
	for _, name := range stale {
		if err := os.WriteFile(name, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st, err = openState(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	for _, name := range stale {
		if _, err := os.Stat(name); !os.IsNotExist(err) {
			t.Errorf("%s survived reopening (stat err %v)", name, err)
		}
	}
	if b, ok := st.loadResult(key); !ok || string(b) != "result" {
		t.Errorf("result after reopening: %q, %v", b, ok)
	}
	if b := st.loadCheckpoint(key); string(b) != "snapshot" {
		t.Errorf("checkpoint after reopening: %q", b)
	}
}

// gatedBody is a request body whose first read reports itself on reading
// and then blocks until open is closed.
type gatedBody struct {
	r             io.Reader
	reading, open chan struct{}
	once          sync.Once
}

func (g *gatedBody) Read(p []byte) (int, error) {
	g.once.Do(func() {
		close(g.reading)
		<-g.open
	})
	return g.r.Read(p)
}

// TestDrainRefusesRequestStillReadingItsBody starts an async request
// whose body read blocks, after the request passed the draining check.
// Drain must not wait for the body, and once the body arrives the request
// must be refused with a 503: it was never admitted, so it leaves no
// journal entry and no journal error.
func TestDrainRefusesRequestStillReadingItsBody(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Workers: 1, StateDir: dir})
	body := &gatedBody{
		r:       strings.NewReader(`{"async":true,"scenarios":[` + scenarioJSON("slow-body", 2000, 3) + `]}`),
		reading: make(chan struct{}),
		open:    make(chan struct{}),
	}
	rr := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/run", body))
	}()
	<-body.reading

	drained := make(chan struct{})
	go func() {
		s.Drain(0)
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain waited for a request body that never arrived")
	}
	close(body.open)
	<-served

	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("request decoded after Drain began: status %d, want 503; body %s", rr.Code, rr.Body.String())
	}
	if b, err := os.ReadFile(filepath.Join(dir, "journal.jsonl")); err != nil || len(b) != 0 {
		t.Errorf("journal after the refused request: %q (err %v), want empty", b, err)
	}
	if n := metricInt(t, s, "journal_errors"); n != 0 {
		t.Errorf("journal_errors = %d, want 0", n)
	}
}
