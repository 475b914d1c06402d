package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// accuracyResponse mirrors the envelope fields the accuracy tests assert
// on.
type accuracyResponse struct {
	Results []json.RawMessage `json:"results"`
	Batch   struct {
		CacheHits       int            `json:"cache_hits"`
		CacheMisses     int            `json:"cache_misses"`
		Degraded        bool           `json:"degraded"`
		DegradedActions []string       `json:"degraded_actions"`
		Backends        map[string]int `json:"backends"`
		Accuracies      map[string]int `json:"accuracies"`
		Fallbacks       []string       `json:"backend_fallbacks"`
	} `json:"batch"`
}

func decodeAccuracy(t *testing.T, body []byte) accuracyResponse {
	t.Helper()
	var resp accuracyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, body)
	}
	return resp
}

// accuracyOf pulls the accuracy class out of a raw result.
func accuracyOf(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var res struct {
		Error    string `json:"error"`
		Accuracy string `json:"accuracy"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Error != "" {
		t.Fatalf("scenario failed: %s", res.Error)
	}
	return res.Accuracy
}

// TestTransactionAccuracyServed drives the estimator tier through the
// wire format: the result reports its accuracy class, the envelope and
// counters account the estimator run, and the two accuracy classes never
// share a cache entry.
func TestTransactionAccuracyServed(t *testing.T) {
	s := New(Config{Workers: 2})
	h := s.Handler()
	spec := scenarioJSON("tiered", 4000, 7)

	first := post(h, `{"accuracy":"transaction","scenarios":[`+spec+`]}`)
	if first.Code != http.StatusOK {
		t.Fatalf("transaction request: status %d, body %s", first.Code, first.Body.String())
	}
	r1 := decodeAccuracy(t, first.Body.Bytes())
	if got := accuracyOf(t, r1.Results[0]); got != "transaction" {
		t.Errorf("result accuracy = %q, want transaction", got)
	}
	if r1.Batch.Accuracies["transaction"] != 1 || r1.Batch.Backends["tlm"] != 1 {
		t.Errorf("envelope accuracies=%v backends=%v, want transaction:1 on tlm",
			r1.Batch.Accuracies, r1.Batch.Backends)
	}
	if s.ctr.backendTLMRuns.Value() != 1 {
		t.Errorf("backend_tlm_runs = %d, want 1", s.ctr.backendTLMRuns.Value())
	}

	// The exact same scenario at cycle accuracy is a different result:
	// it must miss the cache and come back with different bytes.
	second := post(h, `{"accuracy":"cycle","scenarios":[`+spec+`]}`)
	r2 := decodeAccuracy(t, second.Body.Bytes())
	if r2.Batch.CacheMisses != 1 || r2.Batch.CacheHits != 0 {
		t.Fatalf("cycle request after transaction run: hits=%d misses=%d, want 0/1 (cache classes leaked)",
			r2.Batch.CacheHits, r2.Batch.CacheMisses)
	}
	if got := accuracyOf(t, r2.Results[0]); got != "cycle" {
		t.Errorf("cycle result accuracy = %q", got)
	}
	if string(r1.Results[0]) == string(r2.Results[0]) {
		t.Error("transaction and cycle results are byte-identical; the estimate should differ")
	}

	// Repeating the transaction request hits its own cache entry,
	// byte-identically.
	third := post(h, `{"accuracy":"transaction","scenarios":[`+spec+`]}`)
	r3 := decodeAccuracy(t, third.Body.Bytes())
	if r3.Batch.CacheHits != 1 {
		t.Fatalf("transaction replay: hits=%d, want 1", r3.Batch.CacheHits)
	}
	if string(r1.Results[0]) != string(r3.Results[0]) {
		t.Error("cached transaction result not byte-identical")
	}
}

// TestAccuracyResolutionChain pins the scenario → request resolution,
// mirroring the backend chain.
func TestAccuracyResolutionChain(t *testing.T) {
	s := New(Config{Workers: 2})
	h := s.Handler()

	// A scenario without an accuracy inherits the request's.
	rr := post(h, `{"accuracy":"transaction","scenarios":[`+scenarioJSON("req-default", 4000, 3)+`]}`)
	r1 := decodeAccuracy(t, rr.Body.Bytes())
	if got := accuracyOf(t, r1.Results[0]); got != "transaction" {
		t.Errorf("request accuracy ignored: accuracy = %q, want transaction", got)
	}

	// A scenario-level "cycle" overrides the request.
	body := `{"accuracy":"transaction","scenarios":[{"name":"exact","cycles":2000,"accuracy":"cycle",` +
		`"workloads":[{"seed":4,"sequences":3,"pairs_min":2,"pairs_max":6,"idle_min":2,"idle_max":8,"addr_size":4096}]}]}`
	rr2 := post(h, body)
	r2 := decodeAccuracy(t, rr2.Body.Bytes())
	if got := accuracyOf(t, r2.Results[0]); got != "cycle" {
		t.Errorf("scenario override ignored: accuracy = %q, want cycle", got)
	}

	// Unknown accuracy names are rejected at decode, wherever they appear.
	for _, bad := range []string{
		`{"accuracy":"burst","scenarios":[` + scenarioJSON("x", 100, 1) + `]}`,
		`{"scenarios":[{"name":"x","cycles":100,"accuracy":"burst"}]}`,
	} {
		if rr := post(h, bad); rr.Code != http.StatusBadRequest {
			t.Errorf("bad accuracy accepted: status %d for %s", rr.Code, bad)
		}
	}
}

// TestAccuracyFallbackServed posts a transaction-accuracy scenario the
// estimator cannot honor (an active fault plan): it must run
// cycle-accurate with the reason in the envelope and the fallback
// counters bumped.
func TestAccuracyFallbackServed(t *testing.T) {
	s := New(Config{Workers: 2})
	h := s.Handler()
	body := `{"accuracy":"transaction","scenarios":[{"name":"faulted","cycles":2000,
		"faults":{"seed":5,"rules":[{"kind":"waits","slave":-1,"master":-1,"prob":0.001}]},
		"workloads":[{"seed":9,"sequences":4,"pairs_min":2,"pairs_max":6,"idle_min":2,"idle_max":8,"addr_size":4096}]}]}`

	rr := post(h, body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	resp := decodeAccuracy(t, rr.Body.Bytes())
	if got := accuracyOf(t, resp.Results[0]); got != "cycle" {
		t.Errorf("faulted scenario accuracy = %q, want conservative cycle", got)
	}
	if resp.Batch.Accuracies["cycle"] != 1 || resp.Batch.Backends["tlm"] != 0 {
		t.Errorf("envelope accuracies=%v backends=%v, want cycle:1 off the estimator",
			resp.Batch.Accuracies, resp.Batch.Backends)
	}
	if len(resp.Batch.Fallbacks) != 1 ||
		!strings.Contains(resp.Batch.Fallbacks[0], "transaction accuracy:") {
		t.Errorf("fallbacks = %v, want one transaction-accuracy reason", resp.Batch.Fallbacks)
	}
	if s.ctr.accuracyFallbacks.Value() != 1 {
		t.Errorf("accuracy_fallbacks = %d, want 1", s.ctr.accuracyFallbacks.Value())
	}
}

// TestDegradedModeEstimates opts the server into the estimate-degrade
// action and forces pressure: eligible cycle scenarios are downgraded to
// transaction accuracy, re-keyed into the estimate cache class, and the
// envelope + counters report the downgrade.
func TestDegradedModeEstimates(t *testing.T) {
	s := New(Config{Workers: 2, DegradeEstimate: true})
	s.degradeHook = func() bool { return true }
	h := s.Handler()
	spec := scenarioJSON("squeezed", 4000, 13)

	rr := post(h, `{"scenarios":[`+spec+`]}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	resp := decodeAccuracy(t, rr.Body.Bytes())
	if !resp.Batch.Degraded || !hasAction(resp.Batch.DegradedActions, "estimated_transaction_accuracy:1") {
		t.Fatalf("degraded=%v actions=%v, want the estimate action", resp.Batch.Degraded, resp.Batch.DegradedActions)
	}
	if got := accuracyOf(t, resp.Results[0]); got != "transaction" {
		t.Errorf("downgraded scenario accuracy = %q, want transaction", got)
	}
	if s.ctr.degradedEstimated.Value() != 1 {
		t.Errorf("degraded_estimated = %d, want 1", s.ctr.degradedEstimated.Value())
	}

	// The downgraded run cached under the transaction key: an explicit
	// transaction request for the same scenario hits it byte-identically
	// once pressure clears...
	s.degradeHook = func() bool { return false }
	hit := decodeAccuracy(t, post(h, `{"accuracy":"transaction","scenarios":[`+spec+`]}`).Body.Bytes())
	if hit.Batch.CacheHits != 1 {
		t.Errorf("transaction twin of downgraded run: hits=%d, want 1 (re-keying broken?)", hit.Batch.CacheHits)
	}
	if string(resp.Results[0]) != string(hit.Results[0]) {
		t.Error("downgraded bytes differ from the explicit transaction run")
	}
	// ...while a cycle request still computes the exact answer fresh.
	exact := decodeAccuracy(t, post(h, `{"scenarios":[`+spec+`]}`).Body.Bytes())
	if exact.Batch.CacheMisses != 1 {
		t.Errorf("cycle request after downgrade: misses=%d, want 1 (estimate answered an exact request)", exact.Batch.CacheMisses)
	}

	// Without the opt-in, pressure alone never swaps estimates in.
	s2 := New(Config{Workers: 2})
	s2.degradeHook = func() bool { return true }
	resp2 := decodeAccuracy(t, post(s2.Handler(), `{"scenarios":[`+spec+`]}`).Body.Bytes())
	if got := accuracyOf(t, resp2.Results[0]); got != "cycle" {
		t.Errorf("estimate ran without the DegradeEstimate opt-in: accuracy = %q", got)
	}
	if hasAction(resp2.Batch.DegradedActions, "estimated_transaction_accuracy") {
		t.Errorf("actions %v carry the estimate marker without the opt-in", resp2.Batch.DegradedActions)
	}
}

// TestRetryAfterAtLeastOne pins the backpressure-advice clamp: whatever
// the (unsynchronized) waiting gauge reads, Retry-After must never reach
// a client as 0 — zero-delay advice turns polite clients into spinners.
func TestRetryAfterAtLeastOne(t *testing.T) {
	s := New(Config{Workers: 1, MaxConcurrent: 2, MaxQueue: 8})
	cases := []struct {
		waiting int64
		want    int
	}{
		{0, 1},
		{8, 5},
		{-1, 1}, // transient under-read while the queue drains
		{-64, 1},
	}
	for _, c := range cases {
		s.waiting.Store(c.waiting)
		if got := s.retryAfter(); got != c.want {
			t.Errorf("retryAfter() with waiting=%d = %d, want %d", c.waiting, got, c.want)
		}
		if got := s.retryAfter(); got < 1 {
			t.Errorf("retryAfter() with waiting=%d = %d; the advice must stay >= 1", c.waiting, got)
		}
	}
}
