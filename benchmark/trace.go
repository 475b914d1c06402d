package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Start and End are nanoseconds since the recorder's epoch; Parent is 0
// for a root span; Op groups the spans of one timed operation.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory for the length of a traced run; write
// dumps them once the run is over. Untraced runs have no recorder.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its id, for use as a parent.
func (r *recorder) add(parent, op int, name string, start, end time.Time) int {
	id := r.begin(parent, op, name, start)
	r.end(id, end)
	return id
}

// begin opens a span starting at start; end closes it. Open spans let a
// parent's id exist before the children that name it.
func (r *recorder) begin(parent, op int, name string, start time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(start.Sub(r.epoch))})
	return len(r.spans)
}

func (r *recorder) end(id int, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = int64(end.Sub(r.epoch))
}

// time runs fn as a span and returns its duration.
func (r *recorder) time(parent, op int, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(parent, op, name, start, end)
	return end.Sub(start)
}

// selfTimes returns the self time of every span with the given name.
func (r *recorder) selfTimes(name string) []float64 {
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, selfTime(s, children[s.ID]).Seconds())
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap one another — scenarios running on parallel
// workers under one Runner.Run — so covered time is the length of the
// union of the child intervals, clipped to the parent, never their sum.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return time.Duration(parent.End - parent.Start - covered)
}

// write dumps the spans as JSON to path, creating its directory.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
