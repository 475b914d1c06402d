package engine

import (
	"context"
	"errors"
	"fmt"
)

// FailureClass is the engine's failure taxonomy. Every executed scenario
// that fails is classified so batch consumers (the serving layer, the
// chaos harness) can react per class instead of string-matching error
// text. Runs are deterministic, so no class is worth retrying: every
// scenario executes exactly once.
type FailureClass uint8

// Failure classes.
const (
	// ClassPermanent is a deterministic failure: invalid configuration,
	// construction or workload errors, panics.
	ClassPermanent FailureClass = iota
	// ClassTimeout means the scenario's own Timeout expired.
	ClassTimeout
	// ClassCanceled means the batch context ended (drain, Ctrl-C, request
	// deadline) — an external decision.
	ClassCanceled
)

// String names the class.
func (c FailureClass) String() string {
	switch c {
	case ClassPermanent:
		return "permanent"
	case ClassTimeout:
		return "timeout"
	case ClassCanceled:
		return "canceled"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ScenarioError is the typed per-scenario failure a runner batch reports:
// the classified wrapper around the underlying error. One scenario
// failing this way never poisons its batch — every other scenario still
// completes and the batch returns normally.
type ScenarioError struct {
	// Name and Index identify the scenario within its batch.
	Name  string
	Index int
	// Class is the failure classification.
	Class FailureClass
	// Err is the underlying error.
	Err error
}

// Error implements error.
func (e *ScenarioError) Error() string {
	return fmt.Sprintf("%v (%s failure)", e.Err, e.Class)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *ScenarioError) Unwrap() error { return e.Err }

// Classify maps an error to its failure class.
func Classify(err error) FailureClass {
	var se *ScenarioError
	if errors.As(err, &se) {
		return se.Class
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return ClassTimeout
	case errors.Is(err, context.Canceled):
		return ClassCanceled
	}
	return ClassPermanent
}

// typeErr wraps a failed result's error in a *ScenarioError. Raw context
// sentinels mean the scenario never started (the pre-start check) and
// stay untouched, matching the abandoned-scenario contract of Run. An
// expired deadline is the scenario's own Timeout only while the batch
// context is live; once the batch context has ended (drain, Ctrl-C, a
// request deadline) the failure is classed canceled.
func typeErr(ctx context.Context, res *Result) {
	if res.Err == nil || res.Err == context.Canceled || res.Err == context.DeadlineExceeded {
		return
	}
	class := Classify(res.Err)
	if class == ClassTimeout && ctx.Err() != nil {
		class = ClassCanceled
	}
	res.Err = &ScenarioError{Name: res.Scenario.Name, Index: res.Index, Class: class, Err: res.Err}
}
