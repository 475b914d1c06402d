package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/metrics"
)

// checkEnvelope asserts that the splice writers produce exactly what
// encoding/json does for resp: writeRunResponse the bytes of
// json.NewEncoder(w).Encode(resp), appendRunResponse those of
// json.Marshal(resp), an envelope encoding/json refuses included.
func checkEnvelope(t *testing.T, resp RunResponse) {
	t.Helper()
	var want bytes.Buffer
	encErr := json.NewEncoder(&want).Encode(resp)
	rec := httptest.NewRecorder()
	writeRunResponse(rec, http.StatusOK, &resp)
	if got := rec.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("writeRunResponse differs from Encode (encode error %v):\ngot  %q\nwant %q", encErr, got, want.Bytes())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	marshaled, marshalErr := json.Marshal(resp)
	got, err := appendRunResponse(nil, &resp)
	if (err != nil) != (marshalErr != nil) {
		t.Fatalf("appendRunResponse error %v, json.Marshal error %v", err, marshalErr)
	}
	if err == nil && !bytes.Equal(got, marshaled) {
		t.Fatalf("appendRunResponse differs from json.Marshal:\ngot  %q\nwant %q", got, marshaled)
	}
}

func mustResult(t testing.TB, w ResultWire) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunResponseEnvelope pins the splice writer to encoding/json over
// every envelope shape the server sends: hits, misses, per-scenario and
// admission errors, degraded envelopes, nil slots and names that
// encoding/json escapes.
func TestRunResponseEnvelope(t *testing.T) {
	// A real result: tables, block maps, counts and floats as a run
	// produces them.
	sc := engine.Scenario{Name: "real", System: core.PaperSystem(), Cycles: 1500}
	key, _ := sc.CanonicalKey()
	res := engine.NewRunner(1).Run(context.Background(), []engine.Scenario{sc})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	full := mustResult(t, resultWire(&res[0], key))
	hit := mustResult(t, ResultWire{Name: "hit", Key: key, Cycles: 1000, TotalEnergy: 1.25e-9,
		BlockShare: map[string]float64{"arbiter": 0.25, "decoder": 0.75}, Accuracy: engine.AccuracyCycle})
	failed := mustResult(t, ResultWire{Name: "failed", Key: key, Error: `scenario "failed": context deadline exceeded`})
	busy := mustResult(t, ResultWire{Name: "queued", Key: key, Error: errBusy.Error()})
	escaped := mustResult(t, ResultWire{Name: "<&> \u2028\u2029 \"quoted\" \\", Violations: []string{"<hresp> & </hresp>"}})
	ran := metrics.BatchMetricsWire{Scenarios: 2, Workers: 2, TotalCycles: 3000, WallSeconds: 0.0123,
		BusySeconds: 0.02, Utilization: 0.81, CyclesPerSec: 243902.4,
		LatencySeconds: metrics.SummaryWire{N: 2, Mean: 0.01, Min: 0.009, Max: 0.011}}

	cases := []struct {
		name string
		resp RunResponse
	}{
		{"all hits", RunResponse{
			Results: []json.RawMessage{hit, full, hit},
			Batch:   BatchWire{BatchMetricsWire: metrics.BatchMetricsWire{Scenarios: 3}, CacheHits: 3},
		}},
		{"all misses", RunResponse{
			Results: []json.RawMessage{full, hit},
			Batch: BatchWire{BatchMetricsWire: ran, CacheMisses: 2,
				Backends: map[string]int{"event": 1, "compiled": 1}, Accuracies: map[string]int{"cycle": 2}},
		}},
		{"mix", RunResponse{
			Results: []json.RawMessage{hit, full},
			Batch: BatchWire{BatchMetricsWire: ran, CacheHits: 1, CacheMisses: 1,
				Backends: map[string]int{"event": 1}, Accuracies: map[string]int{"cycle": 1}},
		}},
		{"per-scenario errors", RunResponse{
			Results: []json.RawMessage{full, failed},
			Batch:   BatchWire{BatchMetricsWire: metrics.BatchMetricsWire{Scenarios: 2, Failed: 1}, CacheMisses: 2},
		}},
		{"admission error", RunResponse{
			Results: []json.RawMessage{hit, busy, busy},
			Batch:   BatchWire{BatchMetricsWire: metrics.BatchMetricsWire{Scenarios: 3, Failed: 2}, CacheHits: 1, CacheMisses: 2},
		}},
		{"degraded", RunResponse{
			Results: []json.RawMessage{full, hit},
			Batch: BatchWire{BatchMetricsWire: ran, CacheHits: 1, CacheMisses: 1, Uncacheable: 1,
				Degraded:         true,
				DegradedActions:  []string{"estimated_transaction_accuracy:1", "served_from_cache_despite_no_cache"},
				Backends:         map[string]int{"tlm": 1, "event": 1},
				Accuracies:       map[string]int{"transaction": 1, "cycle": 1},
				BackendFallbacks: []string{"real: private-style analyzer <needs> the event kernel & more", "x: lane backend retired: ran on the compiled stepper"}},
		}},
		{"nil slots", RunResponse{
			Results: []json.RawMessage{nil, hit, nil},
			Batch:   BatchWire{CacheHits: 1},
		}},
		{"nil results", RunResponse{}},
		{"empty results", RunResponse{Results: []json.RawMessage{}}},
		{"escaped names", RunResponse{
			Results: []json.RawMessage{escaped},
			Batch:   BatchWire{BackendFallbacks: []string{"<&> : fell back"}, DegradedActions: []string{" "}},
		}},
		{"unencodable envelope", RunResponse{
			Results: []json.RawMessage{hit},
			Batch:   BatchWire{BatchMetricsWire: metrics.BatchMetricsWire{CyclesPerSec: math.Inf(1)}},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkEnvelope(t, c.resp) })
	}
}

// FuzzRunResponseEnvelope checks the splice writer against encoding/json
// over arbitrary result and envelope contents: strings that need
// escaping, non-finite floats, nil slots and nil slices.
func FuzzRunResponseEnvelope(f *testing.F) {
	f.Add("plain", "", "ab12", 1.5e-9, uint64(1000), uint8(3), uint8(0), false, "", "event", 0.01)
	f.Add("<&> ", "boom", "", 0.0, uint64(0), uint8(4), uint8(0b1010), true, "served_from_cache_despite_no_cache", "tlm", 2.5)
	f.Add("", "", "", math.NaN(), uint64(7), uint8(1), uint8(0), false, " ", "", math.Inf(-1))
	f.Add("nil", "", "", 0.0, uint64(0), uint8(0), uint8(1), false, "", "", 0.0)
	f.Fuzz(func(t *testing.T, name, errStr, key string, energy float64, cycles uint64,
		n, nilMask uint8, degraded bool, action, backend string, wall float64) {
		var resp RunResponse
		if n%8 != 0 || nilMask&1 == 0 {
			resp.Results = make([]json.RawMessage, n%8)
		}
		for i := range resp.Results {
			if nilMask>>(i%8)&1 == 1 {
				continue
			}
			w := ResultWire{Name: name, Key: key, Error: errStr, Cycles: cycles, TotalEnergy: energy,
				Counts:     map[string]uint64{backend: cycles},
				BlockShare: map[string]float64{name: energy}, Violations: []string{action}}
			b, err := json.Marshal(w)
			if err != nil {
				continue // no path stores what json.Marshal refuses
			}
			resp.Results[i] = b
		}
		resp.Batch = BatchWire{
			BatchMetricsWire: metrics.BatchMetricsWire{Scenarios: int(n), WallSeconds: wall, CyclesPerSec: energy},
			CacheHits:        int(nilMask), Degraded: degraded,
		}
		if degraded {
			resp.Batch.DegradedActions = []string{action}
			resp.Batch.Backends = map[string]int{backend: int(n)}
			resp.Batch.BackendFallbacks = []string{name + ": " + errStr}
		}
		checkEnvelope(t, resp)
	})
}

// checkJobStatus asserts that a poll of a job holding response sends
// exactly writeJSON of the job's JobStatus with the stored bytes decoded:
// an error body (an object with a non-empty "error" string) into Error,
// anything else into Response, which is omitted when they do not decode.
// It polls twice, so the re-encoding the first poll keeps is checked too.
func checkJobStatus(t *testing.T, st JobStatus, response []byte) {
	t.Helper()
	want := st
	want.Response = nil
	if response != nil {
		var ew struct {
			Error string `json:"error"`
		}
		var resp RunResponse
		if json.Unmarshal(response, &ew) == nil && ew.Error != "" {
			want.Error = ew.Error
		} else if json.Unmarshal(response, &resp) == nil {
			want.Response = &resp
		}
	}
	wantRec := httptest.NewRecorder()
	writeJSON(wantRec, http.StatusOK, want)

	s := &Server{jobs: newJobRegistry(1)}
	j := s.jobs.restore(st.ID, st.Total)
	j.completed.Store(int64(st.Completed))
	j.finish(st.Status, response)
	for poll := 1; poll <= 2; poll++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/x", nil)
		req.SetPathValue("id", st.ID)
		rec := httptest.NewRecorder()
		s.handleJob(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("poll %d: status %d, Content-Type %q", poll, rec.Code, rec.Header().Get("Content-Type"))
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, wantRec.Body.Bytes()) {
			t.Fatalf("poll %d differs from writeJSON \ngot  %q\nwant %q", poll, got, wantRec.Body.Bytes())
		}
	}
}

// TestJobStatusEnvelope pins the job poll's splice to the re-encoding it
// replaced, for queued, running, done and cancelled jobs, whether the
// response was marshaled by this process, restored from a journal or
// does not decode at all, and an error body to the status's error.
func TestJobStatusEnvelope(t *testing.T) {
	sc := engine.Scenario{Name: "real", System: core.PaperSystem(), Cycles: 1500}
	key, _ := sc.CanonicalKey()
	res := engine.NewRunner(1).Run(context.Background(), []engine.Scenario{sc})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	full := mustResult(t, resultWire(&res[0], key))
	busy := mustResult(t, ResultWire{Name: "queued", Key: key, Error: errBusy.Error()})
	marshal := func(resp RunResponse) []byte {
		b, err := appendRunResponse(nil, &resp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	done := marshal(RunResponse{
		Results: []json.RawMessage{full, full},
		Batch: BatchWire{BatchMetricsWire: metrics.BatchMetricsWire{Scenarios: 2, Workers: 1, WallSeconds: 0.0123,
			LatencySeconds: metrics.SummaryWire{N: 2, Mean: 0.01}}, CacheMisses: 2,
			Backends: map[string]int{"event": 2}, Accuracies: map[string]int{"cycle": 2}},
	})
	drained := marshal(RunResponse{
		Results: []json.RawMessage{full, busy, nil},
		Batch:   BatchWire{BatchMetricsWire: metrics.BatchMetricsWire{Scenarios: 3, Failed: 2}, CacheMisses: 3},
	})
	badUTF8 := marshal(RunResponse{
		Results: []json.RawMessage{full},
		Batch:   BatchWire{BackendFallbacks: []string{"bad \xff name: fell back"}, Backends: map[string]int{"\xfe": 1}},
	})
	rejected, _ := json.Marshal(errorWire(errors.New("scenario 0: 90000000 cycles over the limit")))
	id := func(status string, total, completed int) JobStatus {
		return JobStatus{ID: "job-000042", Status: status, Total: total, Completed: completed}
	}
	cases := []struct {
		name     string
		st       JobStatus
		response []byte
	}{
		{"queued", id(JobQueued, 2, 0), nil},
		{"running", id(JobRunning, 2, 1), nil},
		{"done", id(JobDone, 2, 2), done},
		{"cancelled by a drain", id(JobCancelled, 3, 1), drained},
		{"cancelled on recovery", id(JobCancelled, 0, 0), rejected},
		{"invalid UTF-8 in the envelope", id(JobDone, 1, 1), badUTF8},
		{"torn response", id(JobDone, 1, 1), done[:len(done)/2]},
		{"not JSON", id(JobDone, 1, 1), []byte("\x00\xff{")},
		{"not compact", id(JobDone, 1, 1), []byte(`{ "results" : [ {"name" : "a<b"} , null ], "batch" : {"scenarios" : 1e0} }`)},
		{"empty response", id(JobCancelled, 1, 0), []byte{}},
		{"unencodable envelope", id(JobDone, 1, 1), nil},
		{"escaped id", JobStatus{ID: "<job& >", Status: JobDone, Total: 1, Completed: 1}, done},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkJobStatus(t, c.st, c.response) })
	}
}

// FuzzJobStatusEnvelope checks the job poll's splice against writeJSON
// over arbitrary stored bytes, as a journal may hold them, and over
// appendRunResponse output with arbitrary strings in its envelope, as a
// job finished in this process holds it.
func FuzzJobStatusEnvelope(f *testing.F) {
	f.Add("job-000001", JobDone, 1, 1, []byte(`{"results":[{"name":"a"}],"batch":{"scenarios":1}}`), "a", "event", 1.5e-9, uint8(1))
	f.Add("job-000002", JobCancelled, 2, 0, []byte(`{"error":"over the limit"}`), "<&>", "", 0.0, uint8(0))
	f.Add("<&>", JobQueued, 0, 0, []byte(nil), "bad \xff", "tlm", math.Inf(1), uint8(3))
	f.Add("job-000003", JobDone, 1, 1, []byte(`{ "results" : [ 1 , null ] }`), "", " ", -0.0, uint8(9))
	f.Fuzz(func(t *testing.T, id, status string, total, completed int, stored []byte,
		name, action string, energy float64, n uint8) {
		st := JobStatus{ID: id, Status: status, Total: total, Completed: completed}
		checkJobStatus(t, st, stored)

		var resp RunResponse
		if n%8 != 0 {
			resp.Results = make([]json.RawMessage, n%8)
		}
		for i := range resp.Results {
			if b, err := json.Marshal(ResultWire{Name: name, Error: action, TotalEnergy: energy}); err == nil && i%2 == 0 {
				resp.Results[i] = b
			}
		}
		resp.Batch = BatchWire{
			BatchMetricsWire: metrics.BatchMetricsWire{Scenarios: int(n), CyclesPerSec: energy},
			DegradedActions:  []string{action},
			Backends:         map[string]int{action: int(n)},
			BackendFallbacks: []string{name + ": " + action},
		}
		if b, err := appendRunResponse(nil, &resp); err == nil {
			checkJobStatus(t, st, b)
		}
	})
}
