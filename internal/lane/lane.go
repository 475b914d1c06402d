// Package lane is what is left of the retired bit-parallel lane backend:
// a shim that keeps the benchmark module's lane replay
// (benchmark/replay.go) compiling until that replay is dropped, and goes
// with it. A pack runs its specs as compiled-hinted engine scenarios on
// engine.DefaultRunner, so its outcomes equal the runner's results by
// construction.
package lane

import (
	"context"
	"errors"

	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/exec"
	"ahbpower/internal/topo"
	"ahbpower/internal/workload"
)

// Spec is one scenario of a pack, in the fields the replay sets.
type Spec struct {
	Name      string
	Topo      topo.Topology
	Analyzer  core.AnalyzerConfig
	Workloads []workload.Config
	Cycles    uint64
}

// Outcome is one spec's report, or the error that stopped it.
type Outcome struct {
	Report *core.Report
	Err    error
}

// Pack is a batch of specs, built and ready to Run.
type Pack struct {
	scenarios []engine.Scenario
}

// BuildPack turns specs into compiled-hinted engine scenarios. An empty
// pack is an error.
func BuildPack(specs []Spec) (*Pack, error) {
	if len(specs) == 0 {
		return nil, errors.New("lane: empty pack")
	}
	p := &Pack{scenarios: make([]engine.Scenario, len(specs))}
	for i, sp := range specs {
		t := sp.Topo
		p.scenarios[i] = engine.Scenario{Name: sp.Name, Topo: &t, Analyzer: sp.Analyzer,
			Workloads: sp.Workloads, Cycles: sp.Cycles, Backend: exec.NameCompiled}
	}
	return p, nil
}

// Run executes the pack on the default runner and returns one Outcome per
// spec, in spec order.
func (p *Pack) Run(ctx context.Context) []Outcome {
	res := engine.DefaultRunner().Run(ctx, p.scenarios)
	outs := make([]Outcome, len(res))
	for i := range res {
		outs[i] = Outcome{Report: res[i].Report, Err: res[i].Err}
	}
	return outs
}
