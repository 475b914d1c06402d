package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ahbpower/internal/core"
	"ahbpower/internal/workload"
)

func TestPermanentFailureTypedAndIsolated(t *testing.T) {
	bad := core.PaperSystem()
	bad.NumActiveMasters = 0 // construction must fail deterministically
	scs := []Scenario{
		{Name: "ok-a", System: core.PaperSystem(), Cycles: 400},
		{Name: "broken", System: bad, Cycles: 400},
		{Name: "ok-b", System: core.PaperSystem(), Cycles: 400},
	}
	results := NewRunner(2).Run(context.Background(), scs)
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy scenarios failed: %v / %v", results[0].Err, results[2].Err)
	}
	var se *ScenarioError
	if !errors.As(results[1].Err, &se) {
		t.Fatalf("want *ScenarioError, got %v", results[1].Err)
	}
	if se.Class != ClassPermanent {
		t.Errorf("class=%v, want permanent", se.Class)
	}
	if results[1].Attempts != 1 {
		t.Errorf("permanent failure attempted %d times", results[1].Attempts)
	}
	if se.Name != "broken" || se.Index != 1 {
		t.Errorf("identity %q/%d, want broken/1", se.Name, se.Index)
	}
}

func TestScenarioTimeoutClassified(t *testing.T) {
	// A tiny explicit workload keeps construction cheap; the huge cycle
	// count makes the simulation loop itself outlast the timeout.
	sc := Scenario{
		Name:   "slow",
		System: core.PaperSystem(),
		Workloads: []workload.Config{
			{Seed: 1, NumSequences: 2, PairsMin: 1, PairsMax: 2, AddrSize: 64},
		},
		Cycles:  200_000_000,
		Timeout: 50 * time.Millisecond,
	}
	start := time.Now()
	res := NewRunner(1).Run(context.Background(), []Scenario{sc})[0]
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", res.Err)
	}
	var se *ScenarioError
	if !errors.As(res.Err, &se) {
		t.Fatalf("want *ScenarioError, got %v", res.Err)
	}
	if se.Class != ClassTimeout {
		t.Errorf("class=%v, want timeout", se.Class)
	}
	if res.Attempts != 1 {
		t.Errorf("timeout attempted %d times", res.Attempts)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v to fire", elapsed)
	}
}

// TestBatchDeadlineClassifiedCanceled runs the same long scenario as
// TestScenarioTimeoutClassified, but with no Timeout of its own, in a
// batch whose context carries a 50-ms deadline. The deadline belongs to
// the caller, not the scenario, so the failure must be classed canceled,
// not timeout.
func TestBatchDeadlineClassifiedCanceled(t *testing.T) {
	sc := Scenario{
		Name:   "slow",
		System: core.PaperSystem(),
		Workloads: []workload.Config{
			{Seed: 1, NumSequences: 2, PairsMin: 1, PairsMax: 2, AddrSize: 64},
		},
		Cycles: 200_000_000,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res := NewRunner(1).Run(ctx, []Scenario{sc})[0]
	var se *ScenarioError
	if !errors.As(res.Err, &se) {
		t.Fatalf("want *ScenarioError, got %v", res.Err)
	}
	if se.Class != ClassCanceled || Classify(res.Err) != ClassCanceled {
		t.Errorf("class=%v, want canceled", se.Class)
	}
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Errorf("want the batch deadline in the chain, got %v", res.Err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want FailureClass
	}{
		{context.Canceled, ClassCanceled},
		{context.DeadlineExceeded, ClassTimeout},
		{fmt.Errorf("wrap: %w", context.DeadlineExceeded), ClassTimeout},
		{errors.New("boom"), ClassPermanent},
		// A ScenarioError's recorded class wins over its chain.
		{&ScenarioError{Class: ClassTimeout, Err: errors.New("x")}, ClassTimeout},
	}
	for i, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("case %d: Classify(%v) = %v, want %v", i, c.err, got, c.want)
		}
	}
}

func TestScenarioErrorMessage(t *testing.T) {
	se := &ScenarioError{Name: "x", Class: ClassTimeout, Err: errors.New("boom")}
	msg := se.Error()
	for _, want := range []string{"boom", "timeout"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}
