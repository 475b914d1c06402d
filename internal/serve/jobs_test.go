package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestJobRegistryEvictionBoundary pins the retention cap exactly at its
// boundary: maxKeep finished jobs all stay queryable, and the
// (maxKeep+1)-th retirement evicts precisely the oldest one.
func TestJobRegistryEvictionBoundary(t *testing.T) {
	const keep = 3
	r := newJobRegistry(keep)
	var jobs []*job
	for i := 0; i < keep; i++ {
		j := r.create(1)
		j.finish(JobDone, nil)
		r.retire(j)
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if _, ok := r.get(j.id); !ok {
			t.Errorf("job %s evicted at the cap, want retained", j.id)
		}
	}
	over := r.create(1)
	over.finish(JobDone, nil)
	r.retire(over)
	if _, ok := r.get(jobs[0].id); ok {
		t.Errorf("oldest job %s retained past the cap, want evicted", jobs[0].id)
	}
	for _, j := range append(jobs[1:], over) {
		if _, ok := r.get(j.id); !ok {
			t.Errorf("job %s evicted, want retained", j.id)
		}
	}
}

// TestJobRegistryConcurrent exercises create/get/retire from many
// goroutines at once; run under -race this pins the registry's locking.
func TestJobRegistryConcurrent(t *testing.T) {
	r := newJobRegistry(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j := r.create(1)
				if _, ok := r.get(j.id); !ok {
					t.Errorf("job %s invisible to get right after create", j.id)
				}
				j.finish(JobDone, []byte("{}"))
				r.retire(j)
			}
		}()
	}
	wg.Wait()
	if r.next != 8*50 {
		t.Errorf("next = %d, want %d", r.next, 8*50)
	}
}

// TestJobRegistryRestoreIdempotent pins the replay contract on the
// registry side: restoring the same id twice returns the same job, and
// ids observed by restore push the counter so create never collides.
func TestJobRegistryRestoreIdempotent(t *testing.T) {
	r := newJobRegistry(8)
	a := r.restore("job-000005", 2)
	b := r.restore("job-000005", 2)
	if a != b {
		t.Error("restoring the same id twice created two jobs")
	}
	f := r.restoreFinished("job-000002", JobDone, []byte(`{"results":[]}`), 3)
	if got := f.status.Load().(string); got != JobDone {
		t.Errorf("restored finished status %q, want done", got)
	}
	if got := f.completed.Load(); got != 3 {
		t.Errorf("restored finished completed = %d, want 3", got)
	}
	select {
	case <-f.done:
	default:
		t.Error("restored finished job not marked done")
	}
	if j := r.create(1); j.id != fmt.Sprintf("job-%06d", 6) {
		t.Errorf("create after restore issued %s, want job-000006", j.id)
	}
}

// TestJobPollResponseConcurrent polls one restored job from many
// goroutines at once. The first poll re-encodes the stored bytes and
// keeps the result; every poll must return the same bytes. Run under
// -race it pins pollResponse's locking.
func TestJobPollResponseConcurrent(t *testing.T) {
	stored := []byte(`{ "results" : [ {"name" : "a<b"} ], "batch" : {"scenarios" : 1} }`)
	var resp RunResponse
	if err := json.Unmarshal(stored, &resp); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	j := newJobRegistry(8).restoreFinished("job-000001", JobDone, stored, 1)
	got := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = j.pollResponse()
		}()
	}
	wg.Wait()
	for i, b := range got {
		if !bytes.Equal(b, want) {
			t.Errorf("poll %d: %s, want %s", i, b, want)
		}
	}
}
