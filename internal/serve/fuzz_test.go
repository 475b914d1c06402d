package serve

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
)

// FuzzRunRequest drives arbitrary bodies through the daemon's admission
// path: the strict decoder, request and scenario resolution, the
// execution plan and the canonical key. Nothing may panic; every
// scenario the daemon accepts must plan; and an accepted request,
// marshaled and decoded again, must resolve to the same keys, so a
// journaled request recovers under the keys its first admission used.
func FuzzRunRequest(f *testing.F) {
	seeds := []string{
		`{"scenarios":[{"name":"plain","cycles":1000}]}`,
		`{"scenarios":[{"cycles":2000,"faults":{"seed":3,"rules":[
			{"kind":"retry","slave":0,"prob":0.2,"retries":2},
			{"kind":"split","count":1,"hold":5},
			{"kind":"data-flip","master":1,"mask":17}]}}]}`,
		`{"scenarios":[{"cycles":1500,"analyzer":{"style":"local",
			"dpm":{"idle_threshold":8,"wake_energy_J":1e-12},
			"tech":{"vdd_V":1.2,"cpd_F":2e-14,"co_F":5e-14}}}]}`,
		`{"scenarios":[{"cycles":1000,"workloads":[
			{"seed":1,"sequences":4,"pairs_min":1,"pairs_max":3,"idle_max":2,"addr_size":4096,"pattern":"low_activity"},
			{"seed":2,"sequences":2,"pairs_min":2,"pairs_max":2,"addr_size":8192,"pattern":"counter","burst_beats":4}]}]}`,
		`{"accuracy":"transaction","backend":"lanes","scenarios":[
			{"cycles":3000},{"cycles":3000,"backend":"auto","accuracy":"cycle","skip_analyzer":true}]}`,
		`{"scenarios":[{"name":"topo","cycles":1000,"topology":` + paperTwinJSON + `,"analyzer":{"style":"private"}}]}`,
		`{"async":true,"timeout_ms":50,"no_cache":true,"scenarios":[{"cycles":1}]}`,
		`{"scenarios":[{"name":"plain","cycles":1000}]}xyz`,
		`{"scenarios":[{"name":"plain","cycles":1000}]} {"scenarios":[]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	s := New(Config{Workers: 1})
	decode := func(body []byte) (RunRequest, error) {
		var req RunRequest
		err := s.decode(httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)), &req)
		return req, err
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decode(body)
		if err != nil {
			return
		}
		scenarios, keys, err := s.resolveRequest(&req)
		if err != nil {
			return
		}
		for i := range scenarios {
			if _, err := scenarios[i].Plan(); err != nil {
				t.Fatalf("accepted scenario %d does not plan: %v\nbody %s", i, err, body)
			}
			if key, _ := scenarios[i].CanonicalKey(); key != keys[i] {
				t.Fatalf("scenario %d: resolved key %q, CanonicalKey %q", i, keys[i], key)
			}
		}
		wire, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("marshaling an accepted request: %v", err)
		}
		again, err := decode(wire)
		if err != nil {
			t.Fatalf("re-decoding an accepted request: %v\nwire %s", err, wire)
		}
		_, keys2, err := s.resolveRequest(&again)
		if err != nil {
			t.Fatalf("re-resolving an accepted request: %v\nwire %s", err, wire)
		}
		if !reflect.DeepEqual(keys, keys2) {
			t.Fatalf("keys moved across a marshal round trip:\n%q\n%q\nbody %s\nwire %s", keys, keys2, body, wire)
		}
	})
}

// FuzzJournalReplay replays arbitrary journal bytes, framed lines and
// lines as written before the framing. Replay must not panic; no job may
// come back both pending and finished, nor pending when its last entry
// that checks out retired it; next must cover every restored id; at most
// jobsKeep finished jobs come back; and a journal without a tab, made of
// unframed lines only, must replay as the reference fold does within the
// window a restored registry keeps.
func FuzzJournalReplay(f *testing.F) {
	req := `{"scenarios":[{"name":"a","cycles":1000}]}`
	var reqs RunRequest
	if err := json.Unmarshal([]byte(req), &reqs); err != nil {
		f.Fatal(err)
	}
	resp := `{"results":[{"name":"a"}],"batch":{"scenarios":1}}`
	legacy := unframedLine(f, journalEntry{T: journalAccepted, Job: "job-000001", Req: &reqs}) +
		unframedLine(f, journalEntry{T: journalRetired, Job: "job-000001", Status: JobDone, Response: json.RawMessage(resp)}) +
		unframedLine(f, journalEntry{T: journalAccepted, Job: "job-000002", Req: &reqs}) +
		unframedLine(f, journalEntry{T: journalScenario, Key: strings.Repeat("ab", 32)}) +
		unframedLine(f, journalEntry{T: journalRetired, Job: "job-000007", Status: JobCancelled})
	frame := framedLine(f, journalEntry{T: journalAccepted, Job: "job-000003", N: 1}, req) +
		framedLine(f, journalEntry{T: journalRetired, Job: "job-000003", Status: JobDone}, resp) +
		framedLine(f, journalEntry{T: journalAccepted, Job: "job-000004", N: 1}, req) +
		framedLine(f, journalEntry{T: journalAccepted, Job: "job-000005", N: 1}, "not json")
	for _, seed := range []string{
		"",
		legacy,
		frame,
		legacy + frame,
		legacy + `{"t":"accepted","job":"job-0000`,
		frame + strings.Replace(framedLine(f, journalEntry{T: journalRetired, Job: "job-000004", Status: JobDone}, resp), `"a"`, `"b"`, 1),
		legacy + unframedLine(f, journalEntry{T: journalAccepted, Job: "job-000001", Req: &reqs}) + unframedLine(f, journalEntry{T: journalRetired, Job: "job-000002"}),
	} {
		f.Add([]byte(seed))
	}
	st := &stateStore{dir: f.TempDir()}
	f.Fuzz(func(t *testing.T, journal []byte) {
		if err := os.WriteFile(journalPath(st.dir), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := st.replay()
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if len(rs.finished) > jobsKeep {
			t.Fatalf("%d finished jobs restored, at most %d kept", len(rs.finished), jobsKeep)
		}
		retired := lastRetired(journal)
		seen := map[string]bool{}
		for _, fj := range rs.finished {
			if seen[fj.id] {
				t.Fatalf("job %s restored twice", fj.id)
			}
			seen[fj.id] = true
		}
		for _, pj := range rs.pending {
			switch {
			case seen[pj.id]:
				t.Fatalf("job %s restored both pending and finished, or pending twice", pj.id)
			case retired[pj.id]:
				t.Fatalf("job %s pending although its last entry retired it", pj.id)
			case pj.req == nil:
				t.Fatalf("job %s pending without a request", pj.id)
			}
			seen[pj.id] = true
		}
		for id := range seen {
			if n, ok := jobNumber(id); ok && n > rs.next {
				t.Fatalf("job %s restored, but next is %d", id, rs.next)
			}
		}
		if bytes.IndexByte(journal, '\t') < 0 {
			want, err := st.referenceReplay()
			if err != nil {
				t.Fatalf("reference replay: %v", err)
			}
			if err := sameReplay(rs, want); err != nil {
				t.Fatalf("unframed journal replays unlike the reference: %v\njournal %q", err, journal)
			}
		}
	})
}

// lastRetired decodes a journal line by line, apart from replay, and
// maps each job to whether its last entry that checks out is a
// retirement with a status. (A retirement without one leaves its job as
// the fold found it, so it settles nothing.)
func lastRetired(journal []byte) map[string]bool {
	retired := map[string]bool{}
	for _, line := range bytes.Split(journal, []byte{'\n'}) {
		head, payload, framed := bytes.Cut(line, []byte{'\t'})
		var e journalEntry
		if json.Unmarshal(head, &e) != nil || framed && crc32.Checksum(payload, crc32c) != e.CRC || e.Job == "" {
			continue
		}
		switch {
		case e.T == journalRetired:
			retired[e.Job] = e.Status != ""
		case e.T == journalAccepted && (framed || e.Req != nil):
			retired[e.Job] = false
		}
	}
	return retired
}
