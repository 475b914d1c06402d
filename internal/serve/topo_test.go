package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"ahbpower/internal/topo"
)

func postPath(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// paperTwinJSON is the explicit-topology spelling of the default
// (count-based) paper system.
const paperTwinJSON = `{"masters":[{},{},{"default":true}],"slaves":[
	{"regions":[{"start":0,"size":4096}]},
	{"regions":[{"start":4096,"size":4096}]},
	{"regions":[{"start":8192,"size":4096}]}]}`

// overlapTopoJSON fails the ERC pass: slave 1's region sits inside
// slave 0's.
const overlapTopoJSON = `{"masters":[{},{"default":true}],"slaves":[
	{"regions":[{"start":0,"size":4096}]},
	{"regions":[{"start":2048,"size":4096}]}]}`

func ercCodes(errs []topo.Error) []topo.Code {
	out := make([]topo.Code, len(errs))
	for i, e := range errs {
		out[i] = e.Code
	}
	return out
}

// TestTopologyRejectedBeforeAdmission posts a run whose topology fails
// the ERC pass and asserts the rejection is a structured 400 carrying
// typed rule codes — produced at decode time, before admission, so
// nothing was queued or executed.
func TestTopologyRejectedBeforeAdmission(t *testing.T) {
	s := New(Config{Workers: 1})
	h := s.Handler()

	rr := post(h, `{"scenarios":[{"name":"bad","cycles":1000,"topology":`+overlapTopoJSON+`}]}`)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", rr.Code, rr.Body.String())
	}
	var ew ErrorWire
	if err := json.Unmarshal(rr.Body.Bytes(), &ew); err != nil {
		t.Fatalf("400 body is not structured: %v\n%s", err, rr.Body.String())
	}
	if ew.Error == "" || !strings.Contains(ew.Error, "bad") {
		t.Errorf("error message %q should name the scenario", ew.Error)
	}
	found := false
	for _, e := range ew.Erc {
		if e.Code == topo.ErrAddrOverlap {
			found = true
			if e.Path == "" || e.Detail == "" {
				t.Errorf("finding missing path/detail: %+v", e)
			}
		}
	}
	if !found {
		t.Errorf("400 body lacks %s: erc_errors=%v", topo.ErrAddrOverlap, ercCodes(ew.Erc))
	}
	if s.ctr.scenariosRun.Value() != 0 {
		t.Errorf("rejected request executed %d scenarios, want 0", s.ctr.scenariosRun.Value())
	}
	if s.ctr.badRequests.Value() != 1 {
		t.Errorf("bad_requests = %d, want 1", s.ctr.badRequests.Value())
	}

	// A valid topology with a bad analyzer style is rejected as a plain
	// decode error: no ERC findings attached.
	rr = post(h, `{"scenarios":[{"name":"bad-style","cycles":1000,"analyzer":{"style":"nope"},"topology":`+paperTwinJSON+`}]}`)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad style: status %d, want 400", rr.Code)
	}
	var plain ErrorWire
	if err := json.Unmarshal(rr.Body.Bytes(), &plain); err != nil || len(plain.Erc) != 0 {
		t.Errorf("non-ERC rejection should carry no ERC findings: %v %s", err, rr.Body.String())
	}
}

// TestTopologyCountsShareCache posts the default count-based paper
// scenario and then its explicit topology twin: the twin must be a pure
// cache hit with byte-identical result payload, because both canonical-
// ize to the same topology and therefore the same key.
func TestTopologyCountsShareCache(t *testing.T) {
	s := New(Config{Workers: 1})
	h := s.Handler()

	first := post(h, `{"scenarios":[{"name":"twin","cycles":2000}]}`)
	if first.Code != http.StatusOK {
		t.Fatalf("count-based run: status %d, body %s", first.Code, first.Body.String())
	}
	r1 := decodeRun(t, first)
	if r1.Batch.CacheMisses != 1 {
		t.Fatalf("count-based run: misses=%d, want 1", r1.Batch.CacheMisses)
	}

	second := post(h, `{"scenarios":[{"name":"twin","cycles":2000,"topology":`+paperTwinJSON+`}]}`)
	if second.Code != http.StatusOK {
		t.Fatalf("topology run: status %d, body %s", second.Code, second.Body.String())
	}
	r2 := decodeRun(t, second)
	if r2.Batch.CacheHits != 1 || r2.Batch.CacheMisses != 0 {
		t.Fatalf("topology twin: hits=%d misses=%d, want a pure cache hit",
			r2.Batch.CacheHits, r2.Batch.CacheMisses)
	}
	if string(r1.Results[0]) != string(r2.Results[0]) {
		t.Errorf("twin forms produced different result bytes:\ncounts: %s\ntopo:   %s",
			r1.Results[0], r2.Results[0])
	}
}

// TestValidateEndpoint exercises POST /v1/validate: a dry-run report
// with typed findings per scenario, no execution, and the dedicated
// expvar counters.
func TestValidateEndpoint(t *testing.T) {
	s := New(Config{Workers: 1})
	h := s.Handler()

	// One valid-with-warning scenario (address-map gap) and one ERC
	// rejection in the same batch.
	gapTopo := `{"masters":[{},{"default":true}],"slaves":[
		{"regions":[{"start":0,"size":4096}]},
		{"regions":[{"start":16384,"size":4096}]}]}`
	rr := postPath(h, "/v1/validate", `{"scenarios":[
		{"name":"gappy","cycles":1000,"topology":`+gapTopo+`},
		{"name":"broken","cycles":1000,"topology":`+overlapTopoJSON+`}]}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("validate: status %d, want 200 (the report is the payload); body %s", rr.Code, rr.Body.String())
	}
	var resp ValidateResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding validate response: %v\n%s", err, rr.Body.String())
	}
	if resp.Valid || len(resp.Results) != 2 {
		t.Fatalf("valid=%v results=%d, want invalid batch with 2 results", resp.Valid, len(resp.Results))
	}
	gappy, broken := resp.Results[0], resp.Results[1]
	if !gappy.Valid || gappy.Key == "" || gappy.Error != "" {
		t.Errorf("gappy should validate with a canonical key: %+v", gappy)
	}
	foundGap := false
	for _, w := range gappy.Warnings {
		if w.Code == topo.WarnAddrGap {
			foundGap = true
		}
	}
	if !foundGap {
		t.Errorf("gappy warnings lack %s: %+v", topo.WarnAddrGap, gappy.Warnings)
	}
	if broken.Valid || broken.Key != "" {
		t.Errorf("broken must be invalid with no key: %+v", broken)
	}
	foundOverlap := false
	for _, e := range broken.Errors {
		if e.Code == topo.ErrAddrOverlap {
			foundOverlap = true
		}
	}
	if !foundOverlap {
		t.Errorf("broken errors lack %s: %v", topo.ErrAddrOverlap, ercCodes(broken.Errors))
	}

	// A clean batch reports valid and does not bump the reject counter.
	rr = postPath(h, "/v1/validate", `{"scenarios":[{"name":"ok","cycles":1000,"topology":`+paperTwinJSON+`}]}`)
	var clean ValidateResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &clean); err != nil || !clean.Valid {
		t.Errorf("clean validate: err=%v resp=%+v", err, clean)
	}
	if len(clean.Results) != 1 || len(clean.Results[0].Warnings) != 0 {
		t.Errorf("paper twin should be warning-free: %+v", clean.Results)
	}

	// Non-ERC decode failures surface per scenario as plain errors.
	rr = postPath(h, "/v1/validate", `{"scenarios":[{"name":"nocycles","topology":`+paperTwinJSON+`}]}`)
	var nc ValidateResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &nc); err != nil || nc.Valid {
		t.Fatalf("zero-cycles validate: err=%v resp=%+v", err, nc)
	}
	if nc.Results[0].Error == "" || len(nc.Results[0].Errors) != 0 {
		t.Errorf("non-ERC failure should use the plain error field: %+v", nc.Results[0])
	}

	// Nothing executed; counters tallied every call.
	if s.ctr.scenariosRun.Value() != 0 {
		t.Errorf("validate executed %d scenarios, want 0", s.ctr.scenariosRun.Value())
	}
	if got := s.ctr.validateRequests.Value(); got != 3 {
		t.Errorf("validate_requests = %d, want 3", got)
	}
	if got := s.ctr.validateRejects.Value(); got != 2 {
		t.Errorf("validate_rejects = %d, want 2", got)
	}

	// An undecodable body is still a 400.
	if rr := postPath(h, "/v1/validate", `not json`); rr.Code != http.StatusBadRequest {
		t.Errorf("garbage validate body: status %d, want 400", rr.Code)
	}

	// Validate resolves scenarios exactly as run does. (a) A request-level
	// accuracy reaches the reported key.
	lim := New(Config{Workers: 1, MaxCycles: 2000}).Handler()
	txn := `{"accuracy":"transaction","scenarios":[{"name":"txn","cycles":1000}]}`
	var tv ValidateResponse
	if err := json.Unmarshal(postPath(lim, "/v1/validate", txn).Body.Bytes(), &tv); err != nil || !tv.Valid {
		t.Fatalf("request-level accuracy: validate err=%v resp=%+v", err, tv)
	}
	var ran wireResult
	if err := json.Unmarshal(decodeRun(t, post(lim, txn)).Results[0], &ran); err != nil || ran.Error != "" {
		t.Fatalf("request-level accuracy: run err=%v result=%+v", err, ran)
	}
	if tv.Results[0].Key != ran.Key {
		t.Errorf("validate key %s, run key %s", tv.Results[0].Key, ran.Key)
	}
	// (b, c) Request-level backend and accuracy errors are 400s on both.
	for name, body := range map[string]string{
		"request backend":  `{"backend":"warp","scenarios":[{"name":"b","cycles":1000}]}`,
		"request accuracy": `{"accuracy":"exact","scenarios":[{"name":"a","cycles":1000}]}`,
	} {
		for _, path := range []string{"/v1/run", "/v1/validate"} {
			if rr := postPath(lim, path, body); rr.Code != http.StatusBadRequest {
				t.Errorf("%s on %s: status %d, want 400", name, path, rr.Code)
			}
		}
	}
	// (d) A scenario over the cycle limit, with meaningless analyzer
	// constants or with a retry or split rule no transfer can get past,
	// is invalid.
	bodies := []struct{ name, body string }{
		{"cycles over the limit", `{"scenarios":[{"name":"big","cycles":5000}]}`},
		{"endless retries", `{"scenarios":[{"cycles":100,"faults":{"seed":1,"rules":[{"kind":"retry"}]}}]}`},
		{"endless splits", `{"scenarios":[{"cycles":100,"faults":{"seed":1,"rules":[{"kind":"split","slave":1}]}}]}`},
	}
	for _, c := range append(bodies, badAnalyzerConstants...) {
		if rr := post(lim, c.body); rr.Code != http.StatusBadRequest {
			t.Errorf("%s: run status %d, want 400", c.name, rr.Code)
		}
		var ov ValidateResponse
		if err := json.Unmarshal(postPath(lim, "/v1/validate", c.body).Body.Bytes(), &ov); err != nil ||
			ov.Valid || ov.Results[0].Error == "" || ov.Results[0].Key != "" {
			t.Errorf("%s: validate err=%v resp=%+v", c.name, err, ov)
		}
	}
	// (e) The retired trace options are unknown fields: a 400.
	for _, body := range []string{
		`{"scenarios":[{"cycles":1000,"analyzer":{"trace_window_s":1e-6}}]}`,
		`{"scenarios":[{"cycles":1000,"analyzer":{"record_activity":true}}]}`,
	} {
		if rr := postPath(lim, "/v1/validate", body); rr.Code != http.StatusBadRequest {
			t.Errorf("retired option %s: validate status %d, want 400", body, rr.Code)
		}
	}
}

// TestRegionSizePropagation pins how slave region sizes reach the run:
// they shape the canonical address map (and therefore the cache key),
// and non-1KB sizes are refused at decode with the typed ERC code.
func TestRegionSizePropagation(t *testing.T) {
	s := New(Config{Workers: 1})
	h := s.Handler()

	// body is the paper system with three equal slaves of the given size.
	body := func(size int) string {
		var slaves []string
		for i := 0; i < 3; i++ {
			slaves = append(slaves, `{"regions":[{"start":`+jsonInt(i*size)+`,"size":`+jsonInt(size)+`}]}`)
		}
		return `{"scenarios":[{"name":"rs","cycles":1500,"topology":{"masters":[{},{},{"default":true}],"slaves":[` +
			strings.Join(slaves, ",") + `]}}]}`
	}
	key := func(size int) string {
		rr := post(h, body(size))
		if rr.Code != http.StatusOK {
			t.Fatalf("%d B regions: status %d, body %s", size, rr.Code, rr.Body.String())
		}
		r := decodeRun(t, rr)
		var res wireResult
		if err := json.Unmarshal(r.Results[0], &res); err != nil || res.Error != "" {
			t.Fatalf("%d B region run failed: %v %s", size, err, r.Results[0])
		}
		return res.Key
	}
	if key(2048) == key(4096) {
		t.Error("2 KB and 4 KB regions share a cache key")
	}

	bad := post(h, body(1536))
	if bad.Code != http.StatusBadRequest {
		t.Fatalf("1536 B regions: status %d, want 400", bad.Code)
	}
	var ew ErrorWire
	if err := json.Unmarshal(bad.Body.Bytes(), &ew); err != nil {
		t.Fatal(err)
	}
	if codes := ercCodes(ew.Erc); !slices.Contains(codes, topo.ErrRegion1KB) {
		t.Errorf("erc_errors %v should carry %s", codes, topo.ErrRegion1KB)
	}
}

func jsonInt(i int) string {
	b, _ := json.Marshal(i)
	return string(b)
}
