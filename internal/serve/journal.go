package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// Durable daemon state. A server configured with Config.StateDir keeps
// three kinds of on-disk state under it:
//
//   - journal.jsonl — an append-only write-ahead journal of the async
//     job lifecycle, one fsynced line per entry: one "accepted" entry
//     (carrying the full RunRequest) when a job is admitted, one
//     "scenario" entry per cacheable scenario completion, and one
//     "retired" entry (terminal status plus the marshaled response) when
//     the job finishes — done or cancelled. An entry with a payload (the
//     request or the response) is framed: a small JSON head holding the
//     payload's CRC32C, a tab, then the payload bytes as they are.
//   - results/<key>.json — the disk tier of the content-addressed result
//     cache: the exact marshaled ResultWire bytes the memory cache
//     holds, keyed by engine.Scenario.CanonicalKey. Because the stored
//     form is the serialized bytes, a result served from disk after a
//     restart is byte-identical to the response of the run that
//     produced it. A file that is not such bytes is deleted on load,
//     counted as state_corrupt, and its scenario runs again.
//   - checkpoints/<key>.ckpt — the latest engine checkpoint snapshot of
//     each in-progress scenario, replaced as the run advances and
//     deleted when the scenario completes. A snapshot that does not
//     decode is deleted too, counted as state_corrupt, and its scenario
//     runs from cycle 0.
//
// On startup the journal is replayed: retired jobs are restored
// queryable with their original responses, and accepted-but-unretired
// jobs (the ones a crash interrupted) are re-admitted — completed
// scenarios answer from the disk cache, interrupted long scenarios
// resume from their latest checkpoint, and only the genuinely
// unfinished remainder is re-simulated. Replay is idempotent: entries
// are folded by job id, so replaying the same journal any number of
// times yields the same job set. It decodes only the heads while it
// folds; the requests of the jobs still pending and the responses of the
// finished jobs the registry keeps are read back from the file at the
// end, and no other payload is decoded or kept.

// Journal entry types.
const (
	journalAccepted = "accepted"
	journalScenario = "scenario"
	journalRetired  = "retired"
)

// journalEntry is one line of the write-ahead journal. An entry that
// carries a payload — an accepted request or a retired response — is
// framed: its head (the entry without Req and Response, marshaled as
// JSON), a tab, then the payload bytes. json.Marshal never writes a raw
// tab, so the first tab of a line splits it. A line without a tab is the
// whole entry as one JSON object: scenario entries, which carry no
// payload, and every entry of a journal written before the framing.
// Both kinds decode through the same json.Unmarshal into this struct.
type journalEntry struct {
	T   string `json:"t"`
	Job string `json:"job,omitempty"`
	// N is the accepted request's scenario count (framed accepted
	// entries), so replay knows a finished job's total without decoding
	// its request.
	N int `json:"n,omitempty"`
	// Key is the completed scenario's canonical key (scenario entries).
	Key string `json:"key,omitempty"`
	// Status is the terminal state (retired entries).
	Status string `json:"status,omitempty"`
	// CRC is the CRC32C (Castagnoli) of the payload of a framed entry.
	CRC uint32 `json:"crc,omitempty"`
	// Req is the originally admitted request (accepted entries), the
	// replay source for re-admission. Framed entries carry it as their
	// payload.
	Req *RunRequest `json:"req,omitempty"`
	// Response is the retired job's marshaled RunResponse. Framed entries
	// carry it as their payload, written as it is.
	Response json.RawMessage `json:"response,omitempty"`
}

// crc32c is the table of the journal's payload checksums.
var crc32c = crc32.MakeTable(crc32.Castagnoli)

// stateStore is the durable state of one daemon: the journal plus the
// disk tiers of the result cache and the checkpoint store.
type stateStore struct {
	dir string

	mu sync.Mutex
	f  *os.File
}

// openState prepares the state directory and opens the journal for
// appending.
func openState(dir string) (*stateStore, error) {
	for _, d := range []string{dir, filepath.Join(dir, "results"), filepath.Join(dir, "checkpoints")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("serve: state dir: %w", err)
		}
	}
	// A crash mid-write leaves that write's temporary file behind (see
	// atomicWrite). No writer runs before open returns, so every one found
	// is litter, and removing it keeps repeated crashes from piling it up.
	for _, sub := range []string{"results", "checkpoints"} {
		stale, _ := filepath.Glob(filepath.Join(dir, sub, "*.tmp"))
		for _, name := range stale {
			_ = os.Remove(name) // best effort: a file left here is only litter
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	if err := dropTornLine(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: repairing journal: %w", err)
	}
	return &stateStore{dir: dir, f: f}, nil
}

// dropTornLine truncates the journal to the end of its last complete
// line if a crash mid-append left an unterminated one behind. Otherwise
// the next entry would be glued onto the fragment, and replay would drop
// the two together — an accepted job among them, although its client
// holds the id. The fragment itself answered no client: its append never
// returned.
func dropTornLine(f *os.File) error {
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	end := fi.Size()
	buf := make([]byte, 64*1024)
	for end > 0 {
		n := min(end, int64(len(buf)))
		if _, err := f.ReadAt(buf[:n], end-n); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			end -= n - int64(i) - 1
			break
		}
		end -= n
	}
	if end == fi.Size() {
		return nil
	}
	if err := f.Truncate(end); err != nil {
		return err
	}
	return f.Sync()
}

// append durably writes one journal entry: the line is flushed with
// fsync before append returns, so an entry observed by a later replay
// is always complete (the next openState drops the torn final line a
// crash mid-write leaves). An entry with a request or a response
// is written framed; the response goes in as it is, so it must be one
// line of JSON, as every marshaled response is.
func (st *stateStore) append(e journalEntry) error {
	var payload []byte
	switch {
	case e.Req != nil:
		b, err := json.Marshal(e.Req)
		if err != nil {
			return err
		}
		payload, e.N, e.Req = b, len(e.Req.Scenarios), nil
	case len(e.Response) > 0:
		payload, e.Response = e.Response, nil
	}
	if bytes.IndexByte(payload, '\n') >= 0 {
		return errors.New("serve: journal payload holds a newline")
	}
	if payload != nil {
		e.CRC = crc32.Checksum(payload, crc32c)
	}
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if payload != nil {
		b = append(append(b, '\t'), payload...)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, err := st.f.Write(append(b, '\n')); err != nil {
		return err
	}
	return st.f.Sync()
}

func (st *stateStore) close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.f.Close()
}

// validKey guards the content-addressed filenames: canonical keys are
// lowercase hex SHA-256 digests, and nothing else may touch the disk
// tiers (a tampered journal must not become a path traversal).
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// atomicWrite replaces path with data via a same-directory rename, so
// readers never observe a torn file. Every write has a temporary file of
// its own: two writers of one path never truncate each other's file or
// rename it away under the other. A failed write removes its file.
func atomicWrite(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		_ = os.Remove(f.Name()) // best effort: err already reports the failed write
	}
	return err
}

func (st *stateStore) resultPath(key string) string {
	return filepath.Join(st.dir, "results", key+".json")
}

// loadResult returns the disk-cached result bytes for key, if present.
func (st *stateStore) loadResult(key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	b, err := os.ReadFile(st.resultPath(key))
	if err != nil || len(b) == 0 {
		return nil, false
	}
	return b, true
}

// dropResult removes the disk-cached result for key, a file that did not
// check out (see Server.cacheGet).
func (st *stateStore) dropResult(key string) {
	if validKey(key) {
		_ = os.Remove(st.resultPath(key)) // best effort: a file left behind fails its next load too
	}
}

// storeResult persists the marshaled result bytes for key. First store
// wins, mirroring the memory cache's determinism contract.
func (st *stateStore) storeResult(key string, b []byte) error {
	if !validKey(key) {
		return nil
	}
	if _, err := os.Stat(st.resultPath(key)); err == nil {
		return nil
	}
	return atomicWrite(st.resultPath(key), b)
}

func (st *stateStore) checkpointPath(key string) string {
	return filepath.Join(st.dir, "checkpoints", key+".ckpt")
}

// loadCheckpoint returns the latest persisted snapshot of an
// in-progress scenario, or nil.
func (st *stateStore) loadCheckpoint(key string) []byte {
	if !validKey(key) {
		return nil
	}
	b, err := os.ReadFile(st.checkpointPath(key))
	if err != nil || len(b) == 0 {
		return nil
	}
	return b
}

// storeCheckpoint replaces the scenario's persisted snapshot.
func (st *stateStore) storeCheckpoint(key string, b []byte) error {
	if !validKey(key) {
		return nil
	}
	return atomicWrite(st.checkpointPath(key), b)
}

// dropCheckpoint removes the scenario's snapshot once the full result
// exists — the result supersedes it.
func (st *stateStore) dropCheckpoint(key string) {
	if validKey(key) {
		os.Remove(st.checkpointPath(key))
	}
}

// pendingJob is an accepted-but-unretired job found in the journal: the
// work a crash interrupted.
type pendingJob struct {
	id  string
	req *RunRequest
}

// finishedJob is a retired job found in the journal, restorable as a
// queryable terminal job.
type finishedJob struct {
	id       string
	status   string
	response []byte
	// total is the scenario count of the original request when the journal
	// recorded its acceptance, 0 otherwise.
	total int
}

// replayState is the folded outcome of reading the journal.
type replayState struct {
	// next is the highest job number seen, so restored registries never
	// reissue an id.
	next    uint64
	pending []pendingJob
	// finished holds the newest jobsKeep retired jobs, oldest first: the
	// ones a restored registry keeps.
	finished []finishedJob
	// corrupt counts what replay skipped because it did not check out: a
	// line whose head does not decode or whose payload fails its CRC, and
	// a pending job whose request does not decode. The torn final line a
	// crash leaves is not counted.
	corrupt int
}

// span locates a framed entry's payload in the journal file.
type span struct {
	off int64
	n   int
}

// read reads the payload back from the journal.
func (sp span) read(f io.ReaderAt) ([]byte, error) {
	b := make([]byte, sp.n)
	if _, err := f.ReadAt(b, sp.off); err != nil {
		return nil, fmt.Errorf("serve: reading journal: %w", err)
	}
	return b, nil
}

// replay folds the journal into its current job set. Entries are folded
// by job id — a retirement cancels its acceptance — so replaying a
// journal any number of times (or a journal that accumulated several
// daemon lifetimes) yields one entry per job. A line that does not check
// out — a torn final write from a crash, a head that does not decode, a
// payload that fails its CRC — is skipped. Folding decodes heads only
// and notes where each payload lies; then replay decodes the requests of
// the jobs still pending and reads back the responses of the newest
// jobsKeep finished jobs. No other payload is decoded or kept.
func (st *stateStore) replay() (replayState, error) {
	var rs replayState
	f, err := os.Open(filepath.Join(st.dir, "journal.jsonl"))
	if err != nil {
		if os.IsNotExist(err) {
			return rs, nil
		}
		return rs, fmt.Errorf("serve: reading journal: %w", err)
	}
	defer f.Close()

	// jobState is one job's folded state. An unframed entry brings its
	// request or response decoded, a framed one where its payload lies.
	type jobState struct {
		accepted bool
		req      *RunRequest
		reqAt    span
		total    int
		status   string
		response []byte
		respAt   span
	}
	states := map[string]*jobState{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 64<<20)
	sc.Split(scanEntries)
	var off int64
	for sc.Scan() {
		start := off
		off += int64(len(sc.Bytes()))
		line, terminated := bytes.CutSuffix(sc.Bytes(), []byte{'\n'})
		if len(line) == 0 {
			continue
		}
		head, payload, framed := bytes.Cut(line, []byte{'\t'})
		var e journalEntry
		valid := json.Unmarshal(head, &e) == nil
		// An id a head names is never issued again, even when its payload
		// fails the CRC: the client may hold it.
		if n, ok := jobNumber(e.Job); valid && ok && n > rs.next {
			rs.next = n
		}
		if !valid || framed && crc32.Checksum(payload, crc32c) != e.CRC {
			// A torn final line is crash residue, the one skip the fsync
			// contract expects; any other is corruption. (openState drops
			// such a line before a server replays.)
			if terminated {
				rs.corrupt++
			}
			continue
		}
		at := span{off: start + int64(len(head)) + 1, n: len(payload)}
		switch e.T {
		case journalAccepted:
			if e.Job == "" || !framed && e.Req == nil {
				continue
			}
			if _, seen := states[e.Job]; !seen {
				order = append(order, e.Job)
			}
			js := &jobState{accepted: true, reqAt: at, total: e.N}
			if !framed {
				js.req, js.total = e.Req, len(e.Req.Scenarios)
			}
			states[e.Job] = js
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
			js.response, js.respAt = e.Response, span{}
			if framed {
				js.response, js.respAt = nil, at
			}
		}
	}
	if err := sc.Err(); err != nil {
		return rs, fmt.Errorf("serve: scanning journal: %w", err)
	}
	var finished []string
	for _, id := range order {
		js := states[id]
		switch {
		case js.status != "":
			finished = append(finished, id)
		case js.accepted:
			if js.req == nil {
				payload, err := js.reqAt.read(f)
				if err != nil {
					return rs, err
				}
				if json.Unmarshal(payload, &js.req) != nil || js.req == nil {
					rs.corrupt++
					continue
				}
			}
			rs.pending = append(rs.pending, pendingJob{id: id, req: js.req})
		}
	}
	// A restored registry keeps the newest jobsKeep finished jobs, so
	// only their responses are read.
	for _, id := range finished[max(0, len(finished)-jobsKeep):] {
		js := states[id]
		fj := finishedJob{id: id, status: js.status, response: js.response, total: js.total}
		if js.respAt.n > 0 {
			if fj.response, err = js.respAt.read(f); err != nil {
				return rs, err
			}
		}
		rs.finished = append(rs.finished, fj)
	}
	return rs, nil
}

// scanEntries splits the journal into lines like bufio.ScanLines, but
// keeps each line's newline and any carriage return before it: replay
// needs every line's exact length to locate payloads, and the newline to
// tell a torn final line from a complete one.
func scanEntries(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// jobNumber parses the numeric suffix of a "job-%06d" id.
func jobNumber(id string) (uint64, bool) {
	s, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
