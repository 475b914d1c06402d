package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
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
//     job lifecycle: one "accepted" entry (carrying the full RunRequest)
//     when a job is admitted, one "scenario" entry per cacheable
//     scenario completion, and one "retired" entry (terminal status plus
//     the marshaled response) when the job finishes — done or cancelled.
//   - results/<key>.json — the disk tier of the content-addressed result
//     cache: the exact marshaled ResultWire bytes the memory cache
//     holds, keyed by engine.Scenario.CanonicalKey. Because the stored
//     form is the serialized bytes, a result served from disk after a
//     restart is byte-identical to the response of the run that
//     produced it.
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
// times yields the same job set.

// Journal entry types.
const (
	journalAccepted = "accepted"
	journalScenario = "scenario"
	journalRetired  = "retired"
)

// journalEntry is one JSONL line of the write-ahead journal.
type journalEntry struct {
	T   string `json:"t"`
	Job string `json:"job,omitempty"`
	// Req is the originally admitted request (accepted entries), the
	// replay source for re-admission.
	Req *RunRequest `json:"req,omitempty"`
	// Key is the completed scenario's canonical key (scenario entries).
	Key string `json:"key,omitempty"`
	// Status and Response are the terminal state (retired entries).
	Status   string          `json:"status,omitempty"`
	Response json.RawMessage `json:"response,omitempty"`
}

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
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	return &stateStore{dir: dir, f: f}, nil
}

// append durably writes one journal entry: the line is flushed with
// fsync before append returns, so an entry observed by a later replay
// is always complete (a torn final line from a crash mid-write is
// skipped by the replay scanner).
func (st *stateStore) append(e journalEntry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
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
	next     uint64
	pending  []pendingJob
	finished []finishedJob
}

// replay folds the journal into its current job set. Entries are folded
// by job id — a retirement cancels its acceptance — so replaying a
// journal any number of times (or a journal that accumulated several
// daemon lifetimes) yields one entry per job. Unparseable lines (a torn
// final write from a crash) are skipped.
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
