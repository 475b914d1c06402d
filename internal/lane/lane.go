// Package lane is the bit-parallel execution backend: it evaluates up to
// 64 compatible scenarios ("lanes") per step, one lane per bit of the
// uint64 words the shared address-decoder netlist is evaluated over (see
// internal/gate.PackedEval). Scenarios that share a canonical bus
// structure — same address map, clock, width, policy — but differ in
// workload, seed or run length are packed into one execution whose
// per-lane results are bit-identical to the event backend's: the lane
// interpreter replays the exact register/combinational semantics of the
// ahb model with plain struct state instead of kernel signals, feeds each
// lane's settled cycle stream through a detached protocol monitor and a
// transcription of the core analyzer's energy math (same Hamming
// distances, same macromodel calls, same accumulation order), and the
// golden paired suite plus FuzzLaneEquivalence in internal/exec enforce
// Float64bits equality against the event kernel.
package lane

import (
	"context"
	"fmt"
	"math/bits"
	"strings"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
	"ahbpower/internal/power"
	"ahbpower/internal/sim"
	"ahbpower/internal/topo"
	"ahbpower/internal/workload"
)

// MaxLanes is the pack width: one scenario per bit of a uint64.
const MaxLanes = 64

// Name is the backend name threaded through -backend flags, results and
// the serve wire format.
const Name = "lanes"

// Spec describes one lane of a pack: the scenario fields the lane backend
// supports. The engine builds Specs from eligible engine.Scenarios; the
// topology must be canonical and all specs of one pack must share Key.
type Spec struct {
	// Name labels the lane in errors.
	Name string
	// Topo is the canonical topology the lane simulates.
	Topo topo.Topology
	// Analyzer parameterizes the power analyzer (ignored under
	// SkipAnalyzer). DPM, private style and streaming trace recorders are
	// not supported — the exec capability table keeps them out of packs.
	Analyzer core.AnalyzerConfig
	// Workloads supplies per-master traffic exactly like
	// engine.Scenario.Workloads, resolved by core.ResolveWorkloads.
	Workloads []workload.Config
	// Cycles is the lane's run length; lanes of one pack may differ and
	// retire individually.
	Cycles uint64
	// SkipAnalyzer runs the lane without power instrumentation.
	SkipAnalyzer bool
}

// Outcome is the per-lane result scattered back out of a pack, carrying
// exactly the fields engine.Result derives from a simulation.
type Outcome struct {
	// Report is the full analysis outcome (nil under SkipAnalyzer or Err).
	Report *core.Report
	// Stats is the per-instruction energy table (nil under SkipAnalyzer).
	Stats []power.InstructionStat
	// Beats counts data beats completed by the active masters.
	Beats uint64
	// Counts is the protocol monitor's event counters.
	Counts map[string]uint64
	// Violations holds protocol errors detected by the monitor.
	Violations []ahb.ProtocolError
	// Cycles is the number of bus cycles the lane actually simulated.
	Cycles uint64
	// Err captures a per-lane failure: workload generation, or pack
	// cancellation before the lane retired.
	Err error
}

// Key returns the structural grouping key of a topology: two scenarios
// may share a pack exactly when their canonical topologies agree on
// everything that shapes the bus — width, clock, policy, master ports
// (default flags) and the per-slave wait states and address regions.
// Names, workload hints and run lengths are per-lane and excluded.
func Key(t topo.Topology) string {
	ct := t.Canonical()
	var b strings.Builder
	fmt.Fprintf(&b, "w%d|c%d|%s|m:", ct.DataWidth, ct.ClockPeriodPS, ct.Policy)
	for _, m := range ct.Masters {
		if m.Default {
			b.WriteByte('D')
		} else {
			b.WriteByte('a')
		}
	}
	b.WriteString("|s:")
	for _, s := range ct.Slaves {
		fmt.Fprintf(&b, "(%d", s.Waits)
		for _, r := range s.Regions {
			fmt.Fprintf(&b, ",%x+%x", r.Start, r.Size)
		}
		b.WriteByte(')')
	}
	return b.String()
}

// Pack is a built lane-packed execution: up to 64 lanes over one shared
// bus structure, ready to Run. Construction (BuildPack) and execution
// (Run) are split so callers can exclude build time from run metrics.
type Pack struct {
	key    string
	period sim.Time
	lanes  []*laneState
	dec    *packedDecoder
	outs   []Outcome
}

// Lanes returns the pack occupancy (including lanes that failed to
// build).
func (p *Pack) Lanes() int { return len(p.lanes) }

// BuildPack constructs a pack from up to MaxLanes specs sharing one
// structural Key. A per-lane build failure (bad workload configuration)
// is recorded in that lane's Outcome and does not fail the pack; an
// empty, oversized or structurally mixed pack is an error.
func BuildPack(specs []Spec) (*Pack, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("lane: empty pack")
	}
	if len(specs) > MaxLanes {
		return nil, fmt.Errorf("lane: %d specs exceed the %d-lane pack width", len(specs), MaxLanes)
	}
	p := &Pack{outs: make([]Outcome, len(specs))}
	for i := range specs {
		ct := specs[i].Topo.Canonical()
		k := Key(ct)
		if i == 0 {
			if err := topo.Check(ct); err != nil {
				return nil, fmt.Errorf("lane: %s: %w", specs[i].Name, err)
			}
			p.key = k
			p.period = ct.ClockPeriod()
			if p.period < 2 {
				p.period = 2
			}
			var err error
			p.dec, err = newPackedDecoder(ct.Regions())
			if err != nil {
				return nil, fmt.Errorf("lane: decoder netlist: %w", err)
			}
		} else if k != p.key {
			return nil, fmt.Errorf("lane: %s: structural key mismatch within pack", specs[i].Name)
		}
		l, err := newLaneState(i, specs[i], ct)
		if err != nil {
			p.outs[i].Err = fmt.Errorf("lane: %s: %w", specs[i].Name, err)
			p.lanes = append(p.lanes, nil)
			continue
		}
		p.lanes = append(p.lanes, l)
	}
	return p, nil
}

// ctxChunk bounds how many bus cycles Run simulates between cancellation
// checks, mirroring core.System.RunContext's runChunk so cancellation
// latency matches the other backends.
const ctxChunk = 512

// Run executes the pack to completion (or cancellation) and returns one
// Outcome per lane, in spec order. Lanes retire individually at their own
// Cycles; on cancellation, lanes already retired keep their results and
// unfinished lanes fail with the context's error.
func (p *Pack) Run(ctx context.Context) []Outcome {
	var active uint64
	for i, l := range p.lanes {
		if l != nil && l.spec.Cycles > 0 {
			active |= 1 << uint(i)
		} else if l != nil {
			p.outs[i].Err = fmt.Errorf("lane: %s: Cycles must be positive", l.spec.Name)
		}
	}
	// Settle the combinational fabric once before the first clock edge,
	// exactly like the kernel's init-time Method evaluation.
	for m := active; m != 0; m &= m - 1 {
		p.lanes[trailing(m)].comb()
	}
	p.dec.update(p.lanes, active)

	canceled := ctx != nil && ctx.Done() != nil
	sinceCheck := 0
	for active != 0 {
		if canceled {
			if sinceCheck == 0 {
				if err := ctx.Err(); err != nil {
					for m := active; m != 0; m &= m - 1 {
						i := trailing(m)
						p.outs[i].Cycles = p.lanes[i].cycles
						p.outs[i].Err = err
					}
					return p.outs
				}
				sinceCheck = ctxChunk
			}
			sinceCheck--
		}
		for m := active; m != 0; m &= m - 1 {
			p.lanes[trailing(m)].edge()
		}
		for m := active; m != 0; m &= m - 1 {
			p.lanes[trailing(m)].comb()
		}
		p.dec.update(p.lanes, active)
		for m := active; m != 0; m &= m - 1 {
			i := trailing(m)
			l := p.lanes[i]
			l.endOfCycle(p.period)
			if l.cycles >= l.spec.Cycles {
				active &^= 1 << uint(i)
				p.finish(i)
			}
		}
	}
	return p.outs
}

// finish scatters one retired lane's state into its Outcome.
func (p *Pack) finish(i int) {
	l := p.lanes[i]
	o := &p.outs[i]
	o.Cycles = l.cycles
	for i := range l.masters {
		o.Beats += l.masters[i].beats
	}
	o.Counts = l.monitor.Counts()
	o.Violations = l.monitor.Errors()
	if l.an != nil {
		sts := l.an.fsm.Stats()
		o.Stats = sts
		o.Report = core.BuildReport(l.an.style, p.period, l.an.fsm.Cycles(), l.an.fsm.TotalEnergy(),
			sts, &l.an.bd)
	}
}

// trailing returns the index of the lowest set bit of a nonzero mask.
func trailing(m uint64) int { return bits.TrailingZeros64(m) }
