package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// batchJSON is a sync run body of n scenarios named prefix-i.
func batchJSON(prefix string, n int, cycles uint64) string {
	specs := make([]string, n)
	for i := range specs {
		specs[i] = scenarioJSON(fmt.Sprintf("%s-%d", prefix, i), cycles, int64(100+i))
	}
	return `{"scenarios":[` + strings.Join(specs, ",") + `]}`
}

// memoHas reports whether the memo holds body.
func memoHas(s *Server, body string) bool {
	sum := sha256.Sum256([]byte(body))
	_, ok := s.memo.get(string(sum[:]))
	return ok
}

// mustPost posts body and fails unless it answers want.
func mustPost(t *testing.T, h http.Handler, body string, want int) wireResponse {
	t.Helper()
	rr := post(h, body)
	if rr.Code != want {
		t.Fatalf("status %d, want %d; body %s", rr.Code, want, rr.Body.String())
	}
	if want != http.StatusOK {
		return wireResponse{}
	}
	return decodeRun(t, rr)
}

// TestMemoHitMatchesFreshDecode pins what a memo hit hands the handler:
// scenarios and keys deep-equal to a fresh decode of the same body, in
// slices of its own. Only a body answered wholly from the cache enters
// the memo.
func TestMemoHitMatchesFreshDecode(t *testing.T) {
	s := New(Config{Workers: 2})
	h := s.Handler()
	body := `{"timeout_ms":9000,"scenarios":[` + scenarioJSON("m0", 1000, 1) + `,` +
		`{"name":"m1","cycles":1000,"accuracy":"transaction","topology":` + paperTwinJSON + `}]}`

	miss := mustPost(t, h, body, http.StatusOK)
	if miss.Batch.CacheMisses != 2 || memoHas(s, body) {
		t.Fatalf("first request: misses=%d memoized=%v, want 2 misses and no memo entry", miss.Batch.CacheMisses, memoHas(s, body))
	}
	hit := mustPost(t, h, body, http.StatusOK)
	if hit.Batch.CacheHits != 2 || !memoHas(s, body) {
		t.Fatalf("second request: hits=%d memoized=%v, want 2 hits and a memo entry", hit.Batch.CacheHits, memoHas(s, body))
	}

	var req RunRequest
	if err := decodeBody([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	scenarios, keys, err := s.resolveRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	rq, digest, memoized, err := s.decodeRun(httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
	if err != nil || !memoized {
		t.Fatalf("decodeRun: memoized=%v err=%v, want a memo hit", memoized, err)
	}
	if !reflect.DeepEqual(rq.scenarios, scenarios) || !reflect.DeepEqual(rq.keys, keys) || !reflect.DeepEqual(*rq.req, req) {
		t.Fatalf("memo hit differs from a fresh decode:\nmemo  %+v %q\nfresh %+v %q", rq.scenarios, rq.keys, scenarios, keys)
	}
	if m, _ := s.memo.get(digest); &m.scenarios[0] == &rq.scenarios[0] || &m.keys[0] == &rq.keys[0] {
		t.Error("a memo hit hands out the memo entry's own scenario or key slice")
	}

	third := mustPost(t, h, body, http.StatusOK)
	for i := range hit.Results {
		if !bytes.Equal(miss.Results[i], hit.Results[i]) || !bytes.Equal(miss.Results[i], third.Results[i]) {
			t.Errorf("result %d differs across miss, hit and memo hit", i)
		}
	}
}

// TestMemoSurvivesDegradedRekey re-keys a memoized batch in degraded
// mode: the estimate downgrade applies to the request's own copies, and
// the next request under no pressure gets the original cycle keys and
// bytes.
func TestMemoSurvivesDegradedRekey(t *testing.T) {
	s := New(Config{Workers: 2, DegradeEstimate: true})
	h := s.Handler()
	body := batchJSON("rekey", 2, 4000)
	fresh := mustPost(t, h, body, http.StatusOK)
	mustPost(t, h, body, http.StatusOK)
	if !memoHas(s, body) {
		t.Fatal("all-hit request was not memoized")
	}
	var clean []string
	for _, raw := range fresh.Results {
		clean = append(clean, string(raw))
	}

	s.degradeHook = func() bool { return true }
	rr := post(h, body)
	deg := decodeAccuracy(t, rr.Body.Bytes())
	if !deg.Batch.Degraded || deg.Batch.CacheMisses != 2 || !hasAction(deg.Batch.DegradedActions, "estimated_transaction_accuracy:2") {
		t.Fatalf("degraded memo hit: degraded=%v misses=%d actions=%v, want both scenarios estimated",
			deg.Batch.Degraded, deg.Batch.CacheMisses, deg.Batch.DegradedActions)
	}
	for i := range deg.Results {
		if got := accuracyOf(t, deg.Results[i]); got != "transaction" {
			t.Errorf("degraded result %d accuracy %q, want transaction", i, got)
		}
	}

	s.degradeHook = func() bool { return false }
	after := mustPost(t, h, body, http.StatusOK)
	if after.Batch.CacheHits != 2 {
		t.Fatalf("after pressure: hits=%d, want 2", after.Batch.CacheHits)
	}
	for i := range after.Results {
		if string(after.Results[i]) != clean[i] {
			t.Errorf("result %d after a degraded memo hit differs from the cycle result:\n%s\n%s", i, after.Results[i], clean[i])
		}
	}

	// A body first answered wholly from the cache under pressure, from
	// estimates it was re-keyed to, stays out of the memo: unpressured,
	// it is a cycle-accurate request again.
	other := batchJSON("estimated", 2, 4000)
	s.degradeHook = func() bool { return true }
	mustPost(t, h, other, http.StatusOK)
	if r := decodeAccuracy(t, post(h, other).Body.Bytes()); r.Batch.CacheHits != 2 || !r.Batch.Degraded {
		t.Fatalf("estimates under pressure: hits=%d degraded=%v, want 2 degraded hits", r.Batch.CacheHits, r.Batch.Degraded)
	}
	s.degradeHook = func() bool { return false }
	exact := decodeAccuracy(t, post(h, other).Body.Bytes())
	for i := range exact.Results {
		if got := accuracyOf(t, exact.Results[i]); got != "cycle" {
			t.Errorf("unpressured result %d accuracy %q after degraded all-hit batches, want cycle", i, got)
		}
	}
}

// TestMemoEvictedResultsRerun memoizes a body, evicts its results from a
// small result cache, then sends the body from several clients at once:
// every answer re-runs to the original bytes. Run with -race, it also
// shows that requests sharing one memo entry share nothing they write.
func TestMemoEvictedResultsRerun(t *testing.T) {
	s := New(Config{Workers: 2, CacheEntries: 2})
	h := s.Handler()
	body := batchJSON("evict", 2, 1500)
	want := mustPost(t, h, body, http.StatusOK)
	mustPost(t, h, body, http.StatusOK)
	if !memoHas(s, body) {
		t.Fatal("all-hit request was not memoized")
	}
	mustPost(t, h, batchJSON("other", 2, 1500), http.StatusOK) // evicts both results

	const clients = 6
	var wg sync.WaitGroup
	got := make([]*httptest.ResponseRecorder, clients)
	for c := range got {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c] = post(h, body)
		}(c)
	}
	wg.Wait()
	for c, rr := range got {
		if rr.Code != http.StatusOK {
			t.Fatalf("client %d: status %d, body %s", c, rr.Code, rr.Body.String())
		}
		resp := decodeRun(t, rr)
		for i := range want.Results {
			if !bytes.Equal(resp.Results[i], want.Results[i]) {
				t.Errorf("client %d result %d differs from the original run", c, i)
			}
		}
	}
	if hits := s.ctr.cacheHits.Value(); hits+s.ctr.scenariosRun.Value() != 2*(clients+3) {
		t.Errorf("cache_hits %d + scenarios_run %d, want %d", hits, s.ctr.scenariosRun.Value(), 2*(clients+3))
	}
}

// TestMemoAdmitsOnlyAllHitSyncBodies sends every kind of body that must
// stay out of the memo: refusals (each still a counted bad request), a
// no_cache request, an async job and a partly missing batch.
func TestMemoAdmitsOnlyAllHitSyncBodies(t *testing.T) {
	s := New(Config{Workers: 2})
	h := s.Handler()
	warm := scenarioJSON("warm", 1000, 5)
	mustPost(t, h, `{"scenarios":[`+warm+`]}`, http.StatusOK)

	refused := []string{
		`{"scenarios":[` + warm + `]}xyz`,
		`{"scenarios":[` + warm + `]}{"scenarios":[]}`,
		`{"scenarios":[{"name":"zero"}]}`,
		`{"scenarios":[{"cycles":100,"topology":` + overlapTopoJSON + `}]}`,
		`{"backend":"warp","scenarios":[` + warm + `]}`,
	}
	for round := 0; round < 2; round++ {
		for _, body := range refused {
			mustPost(t, h, body, http.StatusBadRequest)
		}
	}
	if got := s.ctr.badRequests.Value(); got != int64(2*len(refused)) {
		t.Errorf("bad_requests = %d, want %d", got, 2*len(refused))
	}

	noCache := `{"no_cache":true,"scenarios":[` + warm + `]}`
	mustPost(t, h, noCache, http.StatusOK)
	mustPost(t, h, noCache, http.StatusOK)
	mustPost(t, h, `{"scenarios":[`+warm+`,`+scenarioJSON("cold", 1000, 6)+`]}`, http.StatusOK)
	async := `{"async":true,"scenarios":[` + warm + `]}`
	for i := 0; i < 2; i++ {
		rr := post(h, async)
		if rr.Code != http.StatusAccepted {
			t.Fatalf("async: status %d", rr.Code)
		}
	}
	if n := s.memo.size(); n != 0 {
		t.Fatalf("memo holds %d entries after refused, no_cache, partly missing and async bodies, want 0", n)
	}

	// The control: the all-hit sync body is memoized.
	mustPost(t, h, `{"scenarios":[`+warm+`]}`, http.StatusOK)
	if n := s.memo.size(); n != 1 {
		t.Errorf("memo holds %d entries after an all-hit sync body, want 1", n)
	}
	s.Drain(10 * time.Second)
}

// TestMemoBoundedByCacheEntries fills a memo bounded to 4 scenarios
// with bodies of 1, 2 and 3 scenarios: it never holds more than 4,
// evicts the least recently used body first, and drops an all-hit body
// of 5 scenarios outright. With caching off it stays empty.
func TestMemoBoundedByCacheEntries(t *testing.T) {
	s := New(Config{Workers: 2, CacheEntries: 4})
	h := s.Handler()
	one, two, three := batchJSON("one", 1, 500), batchJSON("two", 2, 500), batchJSON("three", 3, 500)
	spec := scenarioJSON("five", 500, 9)
	five := `{"scenarios":[` + strings.Repeat(spec+",", 4) + spec + `]}` // five scenarios, one result
	for _, body := range []string{one, two, one, three, five} {
		mustPost(t, h, body, http.StatusOK)
		if r := mustPost(t, h, body, http.StatusOK); r.Batch.CacheMisses != 0 {
			t.Fatalf("repeat of a body: %d misses, want an all-hit batch", r.Batch.CacheMisses)
		}
		s.memo.mu.Lock()
		used := s.memo.used
		s.memo.mu.Unlock()
		if used > 4 {
			t.Fatalf("memo holds %d scenarios, bound 4", used)
		}
	}
	if !memoHas(s, one) || memoHas(s, two) || !memoHas(s, three) || memoHas(s, five) {
		t.Errorf("memo holds one=%v two=%v three=%v five=%v, want one and three",
			memoHas(s, one), memoHas(s, two), memoHas(s, three), memoHas(s, five))
	}

	off := New(Config{Workers: 2, CacheEntries: -1})
	oh := off.Handler()
	for i := 0; i < 2; i++ {
		if r := mustPost(t, oh, one, http.StatusOK); r.Batch.CacheMisses != 1 {
			t.Fatalf("caching off: misses=%d, want 1", r.Batch.CacheMisses)
		}
	}
	if n := off.memo.size(); n != 0 {
		t.Errorf("caching off: memo holds %d entries", n)
	}
}

// TestCorruptDiskResultRunsFresh overwrites a disk-tier result with bytes
// that are not what the server wrote and restarts: the next request for
// the scenario, sync or async, re-runs it to the original bytes instead
// of embedding the file, the file is deleted and counted as
// state_corrupt, and the fresh result takes its place.
func TestCorruptDiskResultRunsFresh(t *testing.T) {
	spec := scenarioJSON("disk", 2000, 21)
	for _, c := range []struct{ name, data string }{
		{"truncated", `{"name":"a","cyc`},
		{"not compact", `{"name": "disk"}`},
		{"not escaped", `{"name":"<disk>"}`},
		{"two values", `{"name":"disk"} {}`},
		{"raw line separator", "{\"name\":\"disk\u2028\"}"},
	} {
		for _, async := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/async=%v", c.name, async), func(t *testing.T) {
				dir := t.TempDir()
				s1 := mustOpen(t, Config{Workers: 2, StateDir: dir})
				want := mustPost(t, s1.Handler(), `{"scenarios":[`+spec+`]}`, http.StatusOK)
				s1.Drain(time.Second)
				var res wireResult
				if err := json.Unmarshal(want.Results[0], &res); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, "results", res.Key+".json")
				if err := os.WriteFile(path, []byte(c.data), 0o644); err != nil {
					t.Fatal(err)
				}

				s2 := mustOpen(t, Config{Workers: 2, StateDir: dir})
				defer s2.Drain(time.Second)
				h := s2.Handler()
				var got []byte
				if async {
					rr := post(h, `{"async":true,"scenarios":[`+spec+`]}`)
					if rr.Code != http.StatusAccepted {
						t.Fatalf("async: status %d", rr.Code)
					}
					var acc map[string]string
					if err := json.Unmarshal(rr.Body.Bytes(), &acc); err != nil {
						t.Fatal(err)
					}
					st := pollJob(t, h, acc["job_id"])
					if st.Status != JobDone || st.Response == nil {
						t.Fatalf("job over a corrupt result: status %q, response %v", st.Status, st.Response)
					}
					got = st.Response.Results[0]
				} else {
					r := mustPost(t, h, `{"scenarios":[`+spec+`]}`, http.StatusOK)
					if r.Batch.CacheMisses != 1 {
						t.Errorf("corrupt file answered as a hit: hits=%d misses=%d", r.Batch.CacheHits, r.Batch.CacheMisses)
					}
					got = r.Results[0]
				}
				if !bytes.Equal(got, want.Results[0]) {
					t.Errorf("re-run result differs from the original:\n%s\n%s", got, want.Results[0])
				}
				if n := metricInt(t, s2, "state_corrupt"); n != 1 {
					t.Errorf("state_corrupt = %d, want 1", n)
				}
				if n := metricInt(t, s2, "disk_cache_hits"); n != 0 {
					t.Errorf("disk_cache_hits = %d, want 0", n)
				}
				if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, want.Results[0]) {
					t.Errorf("disk tier after the re-run holds %q (err %v), want the fresh bytes", b, err)
				}
			})
		}
	}
}

// serveFixture is a server warmed with an 8-scenario hit body.
func serveFixture(tb testing.TB, cfg Config) (*Server, http.Handler, []byte) {
	tb.Helper()
	s, err := Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	h := s.Handler()
	specs := make([]string, 8)
	for i := range specs {
		specs[i] = fmt.Sprintf(`{"name":"hit%d","cycles":10000,"topology":%s,"workloads":[{"seed":%d,"sequences":40,"pairs_min":2,"pairs_max":6,"idle_min":2,"idle_max":8,"addr_size":12288}]}`,
			i, paperTwinJSON, 500+i)
	}
	body := []byte(`{"scenarios":[` + strings.Join(specs, ",") + `]}`)
	for i := 0; i < 2; i++ {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if rr.Code != http.StatusOK {
			tb.Fatalf("warming: status %d, body %.300s", rr.Code, rr.Body.Bytes())
		}
	}
	return s, h, body
}

// hitAllocsBound is the measured allocation count of a memoized
// 8-scenario hit through Handler().ServeHTTP, plus slack for runtime
// versions. Before the request memo and the splice writer, decoding and
// resolving the body and re-encoding the results made 666.
const hitAllocsBound = 24 + 16

// TestServeHitAllocs gates the allocations of a warm, memoized
// 8-scenario hit: a digest lookup and a byte copy, with nothing
// allocated per scenario field.
func TestServeHitAllocs(t *testing.T) {
	s, h, body := serveFixture(t, Config{Workers: 2})
	if !memoHas(s, string(body)) {
		t.Fatal("warm hit body was not memoized")
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/run", nil)
	rd := bytes.NewReader(body)
	req.Body = io.NopCloser(rd)
	req.ContentLength = int64(len(body))
	allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(body)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			t.Fatalf("status %d", rr.Code)
		}
	})
	t.Logf("allocations per memoized 8-scenario hit: %.0f", allocs)
	if allocs > hitAllocsBound {
		t.Errorf("a memoized 8-scenario hit made %.0f allocations, bound %d", allocs, hitAllocsBound)
	}
}

// BenchmarkServeRequest times one /v1/run request through the handler:
// a memoized 8-scenario hit answered from memory, the same batch
// answered from the disk tier by a server whose memory tiers are cold,
// and a fresh 10k-cycle single-scenario miss.
func BenchmarkServeRequest(b *testing.B) {
	serveOne := func(b *testing.B, h http.Handler, body []byte) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if rr.Code != http.StatusOK {
			b.Fatalf("status %d, body %.300s", rr.Code, rr.Body.Bytes())
		}
	}
	b.Run("memory-hit", func(b *testing.B) {
		_, h, body := serveFixture(b, Config{Workers: 2})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOne(b, h, body)
		}
	})
	b.Run("disk-hit", func(b *testing.B) {
		s, h, body := serveFixture(b, Config{Workers: 2, StateDir: b.TempDir()})
		defer s.Drain(time.Second)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s.cache = newCache[[]byte](s.cfg.CacheEntries)
			s.memo = newCache[resolvedRequest](s.cfg.CacheEntries)
			b.StartTimer()
			serveOne(b, h, body)
		}
	})
	b.Run("miss", func(b *testing.B) {
		s := New(Config{Workers: 2})
		h := s.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOne(b, h, []byte(`{"scenarios":[`+scenarioJSON(fmt.Sprintf("miss%d", i), 10000, int64(i))+`]}`))
		}
	})
}
