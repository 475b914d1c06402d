package sim

import "fmt"

// Flat is a straight-line cycle stepper over a built model: instead of
// driving the event heap and sensitivity-based delta scheduling, it
// executes a static per-cycle schedule — the clock's posedge processes in
// registration order, then the supplied combinational waves in topological
// order — and fires the settled-timestep observers once per cycle.
//
// The schedule reuses the exact process closures the event kernel would
// run, and signal writes keep their staged (evaluate/update) semantics, so
// every process still reads pre-edge values and last-write-wins ordering
// is preserved. A model stepped flat therefore settles to bit-identical
// per-cycle state; only delta-cycle accounting (and any delta-level
// instrumentation such as signal-watcher glitch counting installed after
// construction) can differ.
//
// Flat makes three structural assumptions, all validated by NewFlat:
// the clock is the only source of timed events, no process is sensitive to
// the falling clock edge, and every registered process is either
// posedge-sensitive or listed in a combinational wave. A kernel handed to
// a Flat must not be advanced with Run afterwards.
type Flat struct {
	k     *Kernel
	clk   *Clock
	waves [][]*Process
	half  Time
}

// NewFlat validates the model against the flat-execution contract and
// returns a stepper positioned at time zero with initialization settled
// (Method processes have run once, exactly as under the event kernel).
// combWaves lists the combinational processes to settle after each clock
// edge, in topological order: every process in wave i may depend on edge
// outputs and on waves < i, never on later waves.
func NewFlat(k *Kernel, clk *Clock, combWaves [][]*Process) (*Flat, error) {
	// Settle initialization at time zero exactly as Run would: Method
	// processes run once and their deltas drain. The clock's first toggle
	// (scheduled at half a period) stays queued and is never popped.
	if err := k.Run(0); err != nil {
		return nil, err
	}
	if len(k.queue) != 1 {
		return nil, fmt.Errorf("sim: flat stepper supports models whose only timed events are the clock's (found %d queued events)", len(k.queue))
	}
	if len(clk.sig.onFall) != 0 {
		return nil, fmt.Errorf("sim: flat stepper does not support negedge-sensitive processes (found %d)", len(clk.sig.onFall))
	}
	covered := make(map[int]bool, len(k.procs))
	for _, p := range clk.sig.onRise {
		covered[p.id] = true
	}
	for _, wave := range combWaves {
		for _, p := range wave {
			if covered[p.id] {
				return nil, fmt.Errorf("sim: flat schedule lists process %q twice", p.name)
			}
			covered[p.id] = true
		}
	}
	for _, p := range k.procs {
		if !covered[p.id] {
			return nil, fmt.Errorf("sim: process %q is neither posedge-sensitive nor in a combinational wave", p.name)
		}
	}
	// The clock line is held high permanently: posedge processes are called
	// directly, and settled-timestep observers that gate on the high phase
	// (the bus cycle probe) see every flat cycle as a settled posedge.
	clk.sig.SetInit(true)
	return &Flat{k: k, clk: clk, waves: combWaves, half: clk.Period() / 2}, nil
}

// RunCycles advances the model by n settled clock cycles. Simulated time
// and the clock's cycle counter advance exactly as under the event kernel
// (posedge i settles at half + (i-1)*period), so time-stamped observations
// are identical across execution models. It may be called repeatedly;
// each call resumes from the cycle the previous one reached.
func (f *Flat) RunCycles(n uint64) error {
	k := f.k
	k.flat = true
	defer func() { k.flat = false }()
	posedge := f.clk.sig.onRise
	period := f.clk.period
	for ; n > 0; n-- {
		// The event kernel's clock toggle increments the cycle counter
		// before the edge's processes run; mirror that so any process
		// reading Clock.Cycles sees the same 1-based cycle number.
		f.clk.cycles++
		for _, p := range posedge {
			p.fn()
		}
		// Quiescent edge: no synchronous process staged an update, so the
		// combinational nets are still settled from the previous cycle and
		// the waves can be skipped — the same work the event kernel avoids
		// through sensitivity, recovered here without any bookkeeping.
		quiet := len(k.pending) == 0
		k.applyFlat()
		if !quiet {
			for _, wave := range f.waves {
				for _, p := range wave {
					p.fn()
				}
				k.applyFlat()
			}
		}
		k.now = f.half + Time(f.clk.cycles-1)*period
		k.probe()
	}
	return nil
}
