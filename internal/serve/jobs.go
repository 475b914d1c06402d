package serve

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
)

// Job states.
const (
	JobQueued    = "queued"    // admitted, waiting for a runner slot
	JobRunning   = "running"   // executing on the runner
	JobDone      = "done"      // finished; Response holds the batch result
	JobCancelled = "cancelled" // cancelled before or during execution; partial results kept
)

// job is one asynchronous batch. The response of a finished job — even
// one cancelled mid-flight by a deadline or drain — is the same
// RunResponse a synchronous request would have returned, so completed
// scenarios are never dropped.
type job struct {
	id     string
	total  int
	status atomic.Value // string
	// completed counts scenarios that finished executing (hooked into
	// the runner), readable while the job is mid-flight.
	completed atomic.Int64

	mu       sync.Mutex
	response []byte // marshaled RunResponse, set exactly once; see pollResponse
	// refusal is the message of an error body the job was retired with
	// in place of a response, read out by the first poll.
	refusal string
	// reencoded reports that the first poll after finish has replaced
	// response with its re-encoding.
	reencoded bool
	done      chan struct{}
}

func (j *job) finish(status string, response []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	select {
	case <-j.done:
		return // already finished
	default:
	}
	j.status.Store(status)
	j.response = response
	close(j.done)
}

// pollResponse returns what GET /v1/jobs/{id} shows for the job's
// outcome. Stored bytes that are an error body (an object with a
// non-empty "error" string, as recoverJob retires a job the current
// limits refuse with) give their message as refusal and no response.
// Other bytes give response: decoded as a RunResponse and marshaled
// again, or nil, omitted, while the job runs or when they do not decode.
// The first poll after finish decodes them and keeps the result, so
// every later poll splices it as it is.
func (j *job) pollResponse() (response []byte, refusal string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.response != nil && !j.reencoded {
		var ew struct {
			Error string `json:"error"`
		}
		var resp RunResponse
		switch {
		case json.Unmarshal(j.response, &ew) == nil && ew.Error != "":
			j.response, j.refusal = nil, ew.Error
		case json.Unmarshal(j.response, &resp) != nil:
			j.response = nil
		default:
			// A decoded RunResponse holds no value json.Marshal refuses.
			j.response, _ = json.Marshal(&resp)
		}
		j.reencoded = true
	}
	return j.response, j.refusal
}

// JobStatus is the body of GET /v1/jobs/{id}.
type JobStatus struct {
	ID        string `json:"id"`
	Status    string `json:"status"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	// Error is why a job was cancelled without running: a journaled job
	// that the limits in force at restart refuse. Such a job has no
	// Response.
	Error string `json:"error,omitempty"`
	// Response is the finished batch, present once Status is done or
	// cancelled.
	Response *RunResponse `json:"response,omitempty"`
}

// jobRegistry tracks async jobs by id. Finished jobs are retained up to
// a bounded count and evicted oldest-first — the registry of a draining
// daemon must not grow without bound.
type jobRegistry struct {
	mu       sync.Mutex
	next     uint64
	jobs     map[string]*job
	finished []string // finish order, for eviction
	maxKeep  int
}

func newJobRegistry(maxKeep int) *jobRegistry {
	if maxKeep < 1 {
		maxKeep = 1
	}
	return &jobRegistry{jobs: map[string]*job{}, maxKeep: maxKeep}
}

// create registers a new queued job for a batch of total scenarios.
func (r *jobRegistry) create(total int) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	j := &job{id: fmt.Sprintf("job-%06d", r.next), total: total, done: make(chan struct{})}
	j.status.Store(JobQueued)
	r.jobs[j.id] = j
	return j
}

// get looks a job up by id.
func (r *jobRegistry) get(id string) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// retire records a finished job for bounded retention, evicting the
// oldest finished jobs beyond the cap.
func (r *jobRegistry) retire(j *job) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finished = append(r.finished, j.id)
	for len(r.finished) > r.maxKeep {
		evict := r.finished[0]
		r.finished = r.finished[1:]
		delete(r.jobs, evict)
	}
}

// setNext raises the id counter so a registry restored from a journal
// never reissues an id the journal already used.
func (r *jobRegistry) setNext(n uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > r.next {
		r.next = n
	}
}

// restore re-registers a journaled job under its original id,
// idempotently: restoring an id that already exists returns the existing
// job untouched, which is what makes journal replay safe to repeat.
func (r *jobRegistry) restore(id string, total int) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	if j, ok := r.jobs[id]; ok {
		return j
	}
	if n, ok := jobNumber(id); ok && n > r.next {
		r.next = n
	}
	j := &job{id: id, total: total, done: make(chan struct{})}
	j.status.Store(JobQueued)
	r.jobs[id] = j
	return j
}

// restoreFinished re-registers a journaled terminal job with its
// original status and response, already finished and subject to the same
// bounded retention as a job that finished in this process.
func (r *jobRegistry) restoreFinished(id, status string, response []byte, total int) *job {
	j := r.restore(id, total)
	if status == JobDone {
		j.completed.Store(int64(total))
	}
	j.finish(status, response)
	r.retire(j)
	return j
}
