package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// referenceReplay is the journal replay the framed format replaced, kept
// verbatim as the oracle for journals written before the framing: it
// decodes every line whole, every request and every response included.
func (st *stateStore) referenceReplay() (replayState, error) {
	var rs replayState
	f, err := os.Open(filepath.Join(st.dir, "journal.jsonl"))
	if err != nil {
		if os.IsNotExist(err) {
			return rs, nil
		}
		return rs, fmt.Errorf("serve: reading journal: %w", err)
	}
	defer f.Close()

	type jobState struct {
		req      *RunRequest
		status   string
		response []byte
	}
	states := map[string]*jobState{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			continue // torn or corrupt line: skip, the fsync contract covers complete entries
		}
		if n, ok := jobNumber(e.Job); ok && n > rs.next {
			rs.next = n
		}
		switch e.T {
		case journalAccepted:
			if e.Job == "" || e.Req == nil {
				continue
			}
			if _, seen := states[e.Job]; !seen {
				order = append(order, e.Job)
			}
			states[e.Job] = &jobState{req: e.Req}
		case journalRetired:
			if e.Job == "" {
				continue
			}
			js, seen := states[e.Job]
			if !seen {
				js = &jobState{}
				states[e.Job] = js
				order = append(order, e.Job)
			}
			js.status = e.Status
			js.response = e.Response
		}
	}
	if err := sc.Err(); err != nil {
		return rs, fmt.Errorf("serve: scanning journal: %w", err)
	}
	for _, id := range order {
		js := states[id]
		switch {
		case js.status != "":
			fj := finishedJob{id: id, status: js.status, response: js.response}
			if js.req != nil {
				fj.total = len(js.req.Scenarios)
			}
			rs.finished = append(rs.finished, fj)
		case js.req != nil:
			rs.pending = append(rs.pending, pendingJob{id: id, req: js.req})
		}
	}
	return rs, nil
}

// sameReplay reports how got differs from the reference fold want: the
// same next id, the same pending jobs and requests, and the same newest
// jobsKeep finished jobs, the window a restored registry keeps.
func sameReplay(got, want replayState) error {
	if got.next != want.next {
		return fmt.Errorf("next = %d, reference %d", got.next, want.next)
	}
	if len(got.pending) != len(want.pending) {
		return fmt.Errorf("%d pending jobs, reference %d", len(got.pending), len(want.pending))
	}
	for i, p := range got.pending {
		if w := want.pending[i]; p.id != w.id || !reflect.DeepEqual(p.req, w.req) {
			return fmt.Errorf("pending job %d: %s %+v, reference %s %+v", i, p.id, p.req, w.id, w.req)
		}
	}
	window := want.finished[max(0, len(want.finished)-jobsKeep):]
	if len(got.finished) != len(window) {
		return fmt.Errorf("%d finished jobs, reference window %d", len(got.finished), len(window))
	}
	for i, f := range got.finished {
		w := window[i]
		if f.id != w.id || f.status != w.status || f.total != w.total || !bytes.Equal(f.response, w.response) {
			return fmt.Errorf("finished job %d: %s %s total %d %q, reference %s %s total %d %q",
				i, f.id, f.status, f.total, f.response, w.id, w.status, w.total, w.response)
		}
	}
	return nil
}

// journalPath is the journal file of a state dir.
func journalPath(dir string) string { return filepath.Join(dir, "journal.jsonl") }

// unframedLine is e as one JSON line, the way journals were written before
// the framing.
func unframedLine(t testing.TB, e journalEntry) string {
	t.Helper()
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// framedLine is e framed around payload with a valid CRC, whatever the
// payload holds.
func framedLine(t testing.TB, e journalEntry, payload string) string {
	t.Helper()
	e.CRC = crc32.Checksum([]byte(payload), crc32c)
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\t" + payload + "\n"
}

// replayRequest is a small accepted request with n scenarios, distinct
// per seed.
func replayRequest(t testing.TB, n int, seed int64) *RunRequest {
	t.Helper()
	specs := make([]string, n)
	for i := range specs {
		specs[i] = scenarioJSON(fmt.Sprintf("r%d-%d", seed, i), 1000, seed+int64(i))
	}
	req := &RunRequest{}
	if err := json.Unmarshal([]byte(`{"async":true,"scenarios":[`+strings.Join(specs, ",")+`]}`), req); err != nil {
		t.Fatal(err)
	}
	return req
}

// replayResponse is a distinct marshaled response for job i.
func replayResponse(i int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"results":[{"name":"r%d","cycles":%d}],"batch":{"scenarios":1,"cache_hits":%d}}`, i, 1000+i, i%2))
}

// legacyJournal is a journal written before the framing, with more than
// twice jobsKeep jobs: retired ones (done and cancelled, their
// retirements out of acceptance order), pending ones, retirements
// without an acceptance, re-acceptances after a retirement, scenario
// entries, a line that does not decode and a torn final line.
func legacyJournal(t testing.TB) string {
	t.Helper()
	var b strings.Builder
	const jobs = 700
	id := func(i int) string { return fmt.Sprintf("job-%06d", i) }
	for i := 1; i <= jobs; i++ {
		b.WriteString(unframedLine(t, journalEntry{T: journalAccepted, Job: id(i), Req: replayRequest(t, 1+i%3, int64(i))}))
		if i%5 == 0 {
			b.WriteString(unframedLine(t, journalEntry{T: journalScenario, Key: strings.Repeat("ab", 32)}))
		}
		// Jobs retire two acceptances late, every seventh never.
		if r := i - 2; r >= 1 && r%7 != 0 {
			status := JobDone
			if r%11 == 0 {
				status = JobCancelled
			}
			b.WriteString(unframedLine(t, journalEntry{T: journalRetired, Job: id(r), Status: status, Response: replayResponse(r)}))
		}
		switch i {
		case 100:
			b.WriteString(`{"t":"accepted","job":"job-000101","req":{"scen` + "\n")
		case 300:
			// Retired by an earlier lifetime whose acceptance is gone.
			b.WriteString(unframedLine(t, journalEntry{T: journalRetired, Job: "job-000950", Status: JobDone, Response: replayResponse(950)}))
		case 400:
			// Accepted again after its retirement: pending once more.
			b.WriteString(unframedLine(t, journalEntry{T: journalAccepted, Job: id(390), Req: replayRequest(t, 2, 7390)}))
		}
	}
	b.WriteString(`{"t":"retired","job":"job-000699","stat`)
	return b.String()
}

// writeJournal writes a state dir holding journal as its journal.
func writeJournal(t testing.TB, journal string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(journalPath(dir), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestReplayMatchesReference replays a journal written before the
// framing and checks it against the reference fold: the same next id,
// pending jobs and requests, and the same newest jobsKeep finished jobs
// with their statuses, totals and response bytes.
func TestReplayMatchesReference(t *testing.T) {
	st := &stateStore{dir: writeJournal(t, legacyJournal(t))}
	want, err := st.referenceReplay()
	if err != nil {
		t.Fatal(err)
	}
	if len(want.finished) <= 2*jobsKeep || len(want.pending) < 50 {
		t.Fatalf("reference fold: %d finished, %d pending; the journal should exceed the window", len(want.finished), len(want.pending))
	}
	got, err := st.replay()
	if err != nil {
		t.Fatal(err)
	}
	if err := sameReplay(got, want); err != nil {
		t.Fatal(err)
	}
	// The line that does not decode counts; the torn final line does not.
	if got.corrupt != 1 {
		t.Errorf("corrupt = %d, want 1", got.corrupt)
	}
}

// registrySnapshot is what a restored registry holds, job by job.
type registrySnapshot struct {
	next     uint64
	finished []string
	jobs     map[string]string
}

func snapshotRegistry(s *Server) registrySnapshot {
	r := s.jobs
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := registrySnapshot{next: r.next, finished: append([]string(nil), r.finished...), jobs: map[string]string{}}
	for id, j := range r.jobs {
		j.mu.Lock()
		snap.jobs[id] = fmt.Sprintf("%s total %d completed %d response %q",
			j.status.Load(), j.total, j.completed.Load(), j.response)
		j.mu.Unlock()
	}
	return snap
}

// TestReplayDecodesOnlySurvivors restores a journal whose payloads are
// not JSON wherever replay has no use for them: the request of a job that
// retired, and the responses of finished jobs older than the window. Their
// CRCs are valid, so replay must take them as they are, and the registry
// it restores must equal the one a twin journal with well-formed payloads
// restores.
func TestReplayDecodesOnlySurvivors(t *testing.T) {
	build := func(garbage bool) string {
		var b strings.Builder
		req := replayRequest(t, 2, 1)
		reqJSON, _ := json.Marshal(req)
		payload := string(reqJSON)
		if garbage {
			payload = "not a request"
		}
		b.WriteString(framedLine(t, journalEntry{T: journalAccepted, Job: "job-000001", N: 2}, payload))
		b.WriteString(framedLine(t, journalEntry{T: journalRetired, Job: "job-000001", Status: JobDone}, string(replayResponse(1))))
		const jobs = jobsKeep + 44
		for i := 2; i <= jobs+1; i++ {
			id := fmt.Sprintf("job-%06d", i)
			b.WriteString(framedLine(t, journalEntry{T: journalAccepted, Job: id, N: 1}, `{"scenarios":[{"cycles":1000}]}`))
			resp := string(replayResponse(i))
			if garbage && i <= jobs+1-jobsKeep {
				resp = fmt.Sprintf("\x00\xff garbage %d {", i)
			}
			b.WriteString(framedLine(t, journalEntry{T: journalRetired, Job: id, Status: JobDone}, resp))
		}
		return b.String()
	}
	restore := func(journal string) registrySnapshot {
		s := mustOpen(t, Config{Workers: 1, StateDir: writeJournal(t, journal)})
		defer s.Drain(time.Second)
		if n := metricInt(t, s, "state_corrupt"); n != 0 {
			t.Errorf("state_corrupt = %d, want 0", n)
		}
		if n := metricInt(t, s, "jobs_recovered"); n != 0 {
			t.Errorf("jobs_recovered = %d, want 0", n)
		}
		return snapshotRegistry(s)
	}
	clean, garbage := restore(build(false)), restore(build(true))
	if len(clean.jobs) != jobsKeep {
		t.Fatalf("restored %d jobs, want %d", len(clean.jobs), jobsKeep)
	}
	if !reflect.DeepEqual(clean, garbage) {
		t.Errorf("payloads replay has no use for changed the restored registry:\nclean   %+v\ngarbage %+v", clean, garbage)
	}
}

// TestReplayCRCMismatch retires a job with a line whose payload no longer
// matches its CRC. Replay must skip that line as it skips a line that does
// not decode: the job stays pending and is re-admitted under its id. The
// line counts as state_corrupt unless it is the torn final line. An
// acceptance that fails its CRC is skipped too, but its id is not issued
// again.
func TestReplayCRCMismatch(t *testing.T) {
	req := replayRequest(t, 1, 3)
	reqJSON, _ := json.Marshal(req)
	accepted := framedLine(t, journalEntry{T: journalAccepted, Job: "job-000004", N: 1}, string(reqJSON))
	retired := framedLine(t, journalEntry{T: journalRetired, Job: "job-000004", Status: JobDone}, string(replayResponse(4)))
	bad := strings.Replace(retired, `"r4"`, `"r5"`, 1)
	badAccepted := strings.Replace(framedLine(t, journalEntry{T: journalAccepted, Job: "job-000009", N: 1}, string(reqJSON)), `"r3-0"`, `"r3-1"`, 1)
	for _, c := range []struct {
		name    string
		journal string
		corrupt int64
		next    string
	}{
		{"terminated", accepted + bad + unframedLine(t, journalEntry{T: journalScenario, Key: strings.Repeat("cd", 32)}), 1, "job-000005"},
		{"torn final line", accepted + strings.TrimSuffix(bad, "\n"), 0, "job-000005"},
		{"acceptance", badAccepted + accepted + bad, 2, "job-000010"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := mustOpen(t, Config{Workers: 1, StateDir: writeJournal(t, c.journal)})
			defer s.Drain(time.Second)
			if n := metricInt(t, s, "state_corrupt"); n != c.corrupt {
				t.Errorf("state_corrupt = %d, want %d", n, c.corrupt)
			}
			if n := metricInt(t, s, "jobs_recovered"); n != 1 {
				t.Errorf("jobs_recovered = %d, want 1", n)
			}
			if st := pollJob(t, s.Handler(), "job-000004"); st.Status != JobDone || st.Response == nil || len(st.Response.Results) != 1 {
				t.Errorf("re-admitted job: %+v", st)
			}
			if j := s.jobs.create(1); j.id != c.next {
				t.Errorf("next id %s, want %s", j.id, c.next)
			}
		})
	}
}

// TestReplayMixedFormats replays a journal an upgraded daemon extended:
// lines written before the framing, then framed lines, with one job
// accepted in the old format and retired in the new one.
func TestReplayMixedFormats(t *testing.T) {
	dir := writeJournal(t,
		unframedLine(t, journalEntry{T: journalAccepted, Job: "job-000001", Req: replayRequest(t, 2, 1)})+
			unframedLine(t, journalEntry{T: journalRetired, Job: "job-000001", Status: JobDone, Response: replayResponse(1)})+
			unframedLine(t, journalEntry{T: journalAccepted, Job: "job-000002", Req: replayRequest(t, 1, 2)})+
			unframedLine(t, journalEntry{T: journalAccepted, Job: "job-000003", Req: replayRequest(t, 3, 3)}))
	st, err := openState(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	for _, e := range []journalEntry{
		{T: journalRetired, Job: "job-000003", Status: JobCancelled, Response: replayResponse(3)},
		{T: journalAccepted, Job: "job-000004", Req: replayRequest(t, 2, 4)},
		{T: journalAccepted, Job: "job-000005", Req: replayRequest(t, 1, 5)},
		{T: journalRetired, Job: "job-000005", Status: JobDone, Response: replayResponse(5)},
	} {
		if err := st.append(e); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := st.replay()
	if err != nil {
		t.Fatal(err)
	}
	want := replayState{
		next: 5,
		pending: []pendingJob{
			{id: "job-000002", req: replayRequest(t, 1, 2)},
			{id: "job-000004", req: replayRequest(t, 2, 4)},
		},
		finished: []finishedJob{
			{id: "job-000001", status: JobDone, response: replayResponse(1), total: 2},
			{id: "job-000003", status: JobCancelled, response: replayResponse(3), total: 3},
			{id: "job-000005", status: JobDone, response: replayResponse(5), total: 1},
		},
	}
	if err := sameReplay(rs, want); err != nil {
		t.Fatal(err)
	}
	if rs.corrupt != 0 {
		t.Errorf("corrupt = %d, want 0", rs.corrupt)
	}
}

// TestJournalAppendRefusesNewline checks that append refuses a payload
// holding a raw newline, which replay would split into two lines, and
// writes nothing.
func TestJournalAppendRefusesNewline(t *testing.T) {
	dir := t.TempDir()
	st, err := openState(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if err := st.append(journalEntry{T: journalRetired, Job: "job-000001", Status: JobDone, Response: json.RawMessage("{\n}")}); err == nil {
		t.Error("append took a response holding a newline")
	}
	if b, err := os.ReadFile(journalPath(dir)); err != nil || len(b) != 0 {
		t.Errorf("journal after the refused entry: %q (err %v), want empty", b, err)
	}
}

// TestOpenStateDropsTornLine checks that openState cuts the journal back
// to the end of its last complete line, also when the fragment spans
// more than one read, and leaves a journal that ends in a newline as it
// is.
func TestOpenStateDropsTornLine(t *testing.T) {
	long := `{"t":"accepted","job":"job-000002","n":1,"crc":1}` + "\t" + strings.Repeat("x", 200_000)
	for _, c := range []struct{ name, journal, want string }{
		{"empty", "", ""},
		{"complete", "a\nb\n", "a\nb\n"},
		{"torn", "a\nb", "a\n"},
		{"only a fragment", "ab", ""},
		{"long fragment", "a\n" + long, "a\n"},
		{"long line, short fragment", long + "\nb", long + "\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := writeJournal(t, c.journal)
			st, err := openState(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.append(journalEntry{T: journalScenario, Key: strings.Repeat("ab", 32)}); err != nil {
				t.Fatal(err)
			}
			st.close()
			b, err := os.ReadFile(journalPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := strings.CutPrefix(string(b), c.want); !ok || strings.Count(got, "\n") != 1 || !strings.HasPrefix(got, `{"t":"scenario"`) {
				t.Errorf("journal %.80q..., want %.80q and one scenario entry", b, c.want)
			}
		})
	}
}

// TestTornTailKeepsNextAcceptance crashes a daemon in the middle of an
// append, then lets the next one accept a job and crash before the job
// retires. The job must come back: the torn line is cut off before the
// first new entry, so the acceptance is a line of its own instead of
// being glued onto the fragment and dropped with it. Nothing of the
// fragment stays behind for a later start to count as state_corrupt.
func TestTornTailKeepsNextAcceptance(t *testing.T) {
	dir := t.TempDir()
	st, err := openState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.append(journalEntry{T: journalAccepted, Job: "job-000001", Req: replayRequest(t, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := st.append(journalEntry{T: journalRetired, Job: "job-000001", Status: JobDone, Response: replayResponse(1)}); err != nil {
		t.Fatal(err)
	}
	st.f.WriteString(`{"t":"accepted","job":"job-0000`) // the crash mid-append
	st.close()
	intact, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	intact = intact[:bytes.LastIndexByte(intact, '\n')+1]

	s := mustOpen(t, Config{Workers: 1, StateDir: dir})
	if n := metricInt(t, s, "state_corrupt"); n != 0 {
		t.Errorf("state_corrupt = %d after a torn final line, want 0", n)
	}
	rr := post(s.Handler(), `{"async":true,"timeout_ms":60000,"scenarios":[`+scenarioJSON("after-tear", 40_000_000, 3)+`]}`)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("async post: status %d, body %s", rr.Code, rr.Body.String())
	}
	var acc map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	// The client holds its id; the daemon dies before the job retires.
	s.state.close()
	s.Drain(0)

	b, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, intact) || bytes.Count(b[len(intact):], []byte{'\n'}) != 1 {
		t.Fatalf("journal after the tear:\n%s\nwant the intact lines plus one acceptance", b)
	}

	s2 := mustOpen(t, Config{Workers: 1, StateDir: dir})
	defer s2.Drain(0)
	if n := metricInt(t, s2, "jobs_recovered"); n != 1 {
		t.Fatalf("jobs_recovered = %d, want 1", n)
	}
	if n := metricInt(t, s2, "state_corrupt"); n != 0 {
		t.Errorf("state_corrupt = %d on the start after the tear, want 0", n)
	}
	if _, ok := s2.jobs.get(acc["job_id"]); !ok {
		t.Errorf("job %s not restored", acc["job_id"])
	}
}

// replayFixture holds the files of a 2,000-job state dir built through
// Handler(): 16 distinct 2,000-cycle paper scenarios, one per async job,
// each job retired with its response, like the serve benchmark's
// fixture. It is built once per process; each benchmark writes a copy.
var replayFixture struct {
	once  sync.Once
	files map[string][]byte
	err   error
}

func buildReplayFixture() (map[string][]byte, error) {
	dir, err := os.MkdirTemp("", "replay-fixture-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, err := Open(Config{StateDir: dir})
	if err != nil {
		return nil, err
	}
	h := s.Handler()
	specs := make([]string, 16)
	for i := range specs {
		wls := make([]string, 3)
		for m := range wls {
			wls[m] = fmt.Sprintf(`{"seed":%d,"sequences":22,"pairs_min":15,"pairs_max":35,"idle_min":35,"idle_max":70,`+
				`"addr_base":0,"addr_size":12288,"locality_window":4096,"pattern":"random","burst_beats":1}`, 100*i+m)
		}
		specs[i] = fmt.Sprintf(`{"name":"fill%02d","cycles":2000,"topology":%s,"workloads":[%s]}`, i, paperTwinJSON, strings.Join(wls, ","))
	}
	if rr := post(h, `{"scenarios":[`+strings.Join(specs, ",")+`]}`); rr.Code != http.StatusOK {
		return nil, fmt.Errorf("fill batch: status %d, body %.300s", rr.Code, rr.Body.Bytes())
	}
	for j := 0; j < 2000; j++ {
		if rr := post(h, `{"async":true,"scenarios":[`+specs[j%len(specs)]+`]}`); rr.Code != http.StatusAccepted {
			return nil, fmt.Errorf("job %d: status %d, body %.300s", j, rr.Code, rr.Body.Bytes())
		}
	}
	s.Drain(time.Minute) // every job retires before the drain returns
	if n, _ := json.Number(s.vars.Get("journal_errors").String()).Int64(); n != 0 {
		return nil, fmt.Errorf("%d journal errors", n)
	}
	files := map[string][]byte{}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err == nil {
			files[rel], err = os.ReadFile(path)
		}
		return err
	})
	return files, err
}

// BenchmarkJournalReplay times Open on a copy of a 2,000-job state dir:
// the journal replay a restarted daemon pays before it serves. Nothing in
// the journal is pending, so Open writes nothing and every iteration
// replays the same copy.
func BenchmarkJournalReplay(b *testing.B) {
	replayFixture.once.Do(func() { replayFixture.files, replayFixture.err = buildReplayFixture() })
	if replayFixture.err != nil {
		b.Fatal(replayFixture.err)
	}
	dir := b.TempDir()
	for rel, data := range replayFixture.files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(Config{StateDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if n := len(s.jobs.jobs); n != jobsKeep {
			b.Fatalf("restored %d jobs, want %d", n, jobsKeep)
		}
		s.Drain(0)
		b.StartTimer()
	}
	b.ReportMetric(float64(len(replayFixture.files["journal.jsonl"]))/(1<<20), "journal_MB")
}
