package serve

import (
	"encoding/json"
	"net/http"
	"testing"
)

// degradeResponse mirrors the envelope fields the degradation tests
// assert on.
type degradeResponse struct {
	Results []json.RawMessage `json:"results"`
	Batch   struct {
		Scenarios       int      `json:"scenarios"`
		CacheHits       int      `json:"cache_hits"`
		CacheMisses     int      `json:"cache_misses"`
		Degraded        bool     `json:"degraded"`
		DegradedActions []string `json:"degraded_actions"`
	} `json:"batch"`
}

func decodeDegrade(t *testing.T, body []byte) degradeResponse {
	t.Helper()
	var resp degradeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, body)
	}
	return resp
}

func hasAction(actions []string, prefix string) bool {
	for _, a := range actions {
		if len(a) >= len(prefix) && a[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}

// TestDegradedModeServesCacheDespiteNoCache warms the cache, then posts
// the same batch with no_cache under pressure: the server may serve the
// still-valid cached bytes, and must say so.
func TestDegradedModeServesCacheDespiteNoCache(t *testing.T) {
	s := New(Config{Workers: 2})
	h := s.Handler()
	body := `{"scenarios":[` + scenarioJSON("pressure", 1500, 11) + `]}`

	warm := decodeDegrade(t, post(h, body).Body.Bytes())
	if warm.Batch.CacheMisses != 1 {
		t.Fatalf("warm-up misses=%d, want 1", warm.Batch.CacheMisses)
	}

	s.degradeHook = func() bool { return true }
	rr := post(h, `{"no_cache":true,"scenarios":[`+scenarioJSON("pressure", 1500, 11)+`]}`)
	resp := decodeDegrade(t, rr.Body.Bytes())
	if !resp.Batch.Degraded || resp.Batch.CacheHits != 1 {
		t.Fatalf("degraded no_cache request: degraded=%v hits=%d, want true/1",
			resp.Batch.Degraded, resp.Batch.CacheHits)
	}
	if !hasAction(resp.Batch.DegradedActions, "served_from_cache_despite_no_cache") {
		t.Errorf("actions %v missing cache-override marker", resp.Batch.DegradedActions)
	}
	if string(warm.Results[0]) != string(resp.Results[0]) {
		t.Error("degraded cached bytes differ from the fresh run")
	}
	if s.ctr.degradedCacheServed.Value() != 1 {
		t.Errorf("degraded_cache_served=%d, want 1", s.ctr.degradedCacheServed.Value())
	}
}

// TestFaultPlanOverTheWire runs a faulted scenario through the HTTP
// layer: injector counters come back in the payload and the cached
// replay is byte-identical.
func TestFaultPlanOverTheWire(t *testing.T) {
	s := New(Config{Workers: 2})
	h := s.Handler()
	body := `{"scenarios":[{"name":"faulty","cycles":2000,
		"faults":{"seed":5,"rules":[{"kind":"error","count":2}]},
		"workloads":[{"seed":9,"sequences":4,"pairs_min":2,"pairs_max":6,"idle_min":2,"idle_max":8,"addr_size":4096}]}]}`

	rr := post(h, body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	resp := decodeDegrade(t, rr.Body.Bytes())
	var res struct {
		Name   string `json:"name"`
		Error  string `json:"error"`
		Faults struct {
			Errors uint64 `json:"errors"`
		} `json:"faults"`
	}
	if err := json.Unmarshal(resp.Results[0], &res); err != nil {
		t.Fatal(err)
	}
	if res.Error != "" {
		t.Fatalf("faulted scenario failed: %s", res.Error)
	}
	if res.Faults.Errors != 2 {
		t.Errorf("injected errors=%d, want 2", res.Faults.Errors)
	}

	second := decodeDegrade(t, post(h, body).Body.Bytes())
	if second.Batch.CacheHits != 1 {
		t.Fatalf("faulted scenario not cached: hits=%d", second.Batch.CacheHits)
	}
	if string(resp.Results[0]) != string(second.Results[0]) {
		t.Error("cached faulted result not byte-identical")
	}
}

// TestInvalidFaultPlanRejected asserts plan schema errors surface as 400s.
func TestInvalidFaultPlanRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	h := s.Handler()
	rr := post(h, `{"scenarios":[{"name":"bad","cycles":100,
		"faults":{"rules":[{"kind":"addr-flip","slave":1}]}}]}`)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rr.Code, rr.Body.String())
	}
}
