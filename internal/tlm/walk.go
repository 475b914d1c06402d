package tlm

import (
	"context"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/power"
	"ahbpower/internal/topo"
	"ahbpower/internal/workload"
)

// instrCounts maps power-FSM instructions to cycle counts. The state
// space is tiny (4x4), so a flat array indexed From*NumStates+To is both
// the fastest and the simplest representation.
type instrCounts [power.NumStates * power.NumStates]uint64

func (c *instrCounts) add(from, to power.State, n uint64) {
	c[int(from)*power.NumStates+int(to)] += n
}

// emitter turns state runs into instruction counts with the power.FSM's
// exact attribution semantics: the first cycle only establishes the
// initial state; every later cycle contributes one (prev -> cur)
// instruction. Counts are kept for the full horizon and, separately, for
// the calibration-prefix window, by splitting runs at the boundary — the
// walk stays O(#runs), never O(#cycles).
type emitter struct {
	prefix, horizon uint64
	t               uint64 // cycles emitted so far
	havePrev        bool
	prev            power.State
	full            instrCounts
	pre             instrCounts
}

// run emits n consecutive cycles of state s, clamped to the horizon.
func (e *emitter) run(s power.State, n uint64) {
	if n == 0 || e.t >= e.horizon {
		return
	}
	if e.t+n > e.horizon {
		n = e.horizon - e.t
	}
	if !e.havePrev {
		e.havePrev, e.prev = true, s
		e.t++
		n--
		if n == 0 {
			return
		}
	}
	// The transition cycle, then the self-run.
	e.addRun(e.prev, s, 1)
	e.prev = s
	if n > 1 {
		e.addRun(s, s, n-1)
	}
}

// addRun counts n instruction cycles, splitting the count across the
// prefix boundary by the (1-based) index of each cycle.
func (e *emitter) addRun(from, to power.State, n uint64) {
	e.full.add(from, to, n)
	if e.t < e.prefix {
		inPre := e.prefix - e.t
		if inPre > n {
			inPre = n
		}
		e.pre.add(from, to, inPre)
	}
	e.t += n
}

// pairs emits p WRITE-READ pairs, each op n cycles, in O(1): the first
// write's transition from the previous state, then per op its n-1
// self-loop cycles and the transition into the next op. It emits nothing
// and reports false unless the pairs end inside the horizon, all before
// or all after the prefix boundary, so that no count needs splitting.
func (e *emitter) pairs(p, n uint64) bool {
	end := e.t + 2*p*n
	if end > e.horizon || e.t < e.prefix && end > e.prefix {
		return false
	}
	e.full.addPairs(e.prev, p, n)
	if e.t < e.prefix {
		e.pre.addPairs(e.prev, p, n)
	}
	e.prev, e.t = power.Read, end
	return true
}

// addPairs counts the instructions of p WRITE-READ pairs of n-cycle ops
// entered from state prev.
func (c *instrCounts) addPairs(prev power.State, p, n uint64) {
	c.add(prev, power.Write, 1)
	c.add(power.Write, power.Write, p*(n-1))
	c.add(power.Write, power.Read, p)
	c.add(power.Read, power.Read, p*(n-1))
	c.add(power.Read, power.Write, p-1)
}

// walkResult is everything the transaction walk derives from the scripts:
// instruction counts over both windows plus estimated protocol counters.
type walkResult struct {
	full   instrCounts
	pre    instrCounts
	cycles uint64

	// tailFull and tailPre count the dead-bus IDLE_HO self-loop cycles of
	// the post-script tail, over the full horizon and within the
	// calibration-prefix window. Once every script has drained nothing
	// switches — no requests, no grant churn — so those cycles cost clock
	// plus idle arbitration only, unlike the busy-region gap idles the
	// prefix measures; calibrate prices them analytically instead of
	// letting a busy prefix inflate them.
	tailFull uint64
	tailPre  uint64

	beats     uint64
	nonseq    uint64
	seq       uint64
	waits     uint64
	handovers uint64
	idle      uint64
}

// monitorCounts projects the walk's protocol estimates onto the bus
// monitor's counter key space, keeping the only-nonzero convention.
func (w *walkResult) monitorCounts() map[string]uint64 {
	m := make(map[string]uint64, 5)
	for k, v := range map[string]uint64{
		"nonseq":   w.nonseq,
		"seq":      w.seq,
		"wait":     w.waits,
		"handover": w.handovers,
		"idle":     w.idle,
	} {
		if v > 0 {
			m[k] = v
		}
	}
	return m
}

// waitTable resolves wait states by address from the topology's flattened
// region map (the same table the bus decoder is built from). The walk
// asks once per op, so a bus whose slaves insert no wait states answers
// 0 without scanning the regions.
type waitTable struct {
	regions []ahb.Region
	waits   []int // per slave
	none    bool  // no slave inserts wait states
}

func newWaitTable(ct *topo.Topology) waitTable {
	wt := waitTable{regions: ct.Regions(), waits: make([]int, len(ct.Slaves)), none: true}
	for i, s := range ct.Slaves {
		wt.waits[i] = s.Waits
		if s.Waits != 0 {
			wt.none = false
		}
	}
	return wt
}

// at returns the wait states of the slave decoding addr, 0 when no
// region does.
func (wt waitTable) at(addr uint32) int {
	if wt.none {
		return 0
	}
	for _, r := range wt.regions {
		if r.Contains(addr) {
			return wt.waits[r.Slave]
		}
	}
	return 0
}

// common returns the wait states every address in addrs gets, and false
// when they differ.
func (wt waitTable) common(addrs []uint32) (uint64, bool) {
	if wt.none {
		return 0, true
	}
	waits := wt.at(addrs[0])
	for _, a := range addrs[1:] {
		if wt.at(a) != waits {
			return 0, false
		}
	}
	return uint64(waits), true
}

// startupLatency approximates the request -> grant -> address-phase
// pipeline delay before the first transfer of a run reaches the bus.
const startupLatency = 2

// walkCheckEvery is how many steps (a served sequence or an idle gap)
// the walk takes between checks of its context: a millisecond or so of
// walking, so a cancelled or timed-out estimate stops promptly at any
// horizon.
const walkCheckEvery = 1024

// runWalk serves each master's traffic at transaction granularity and
// counts power-FSM instructions over the horizon. Every master gets a
// fresh cursor on its configuration, and the walk draws the master's
// next sequence shape only when it serves that master, so no traffic
// past the horizon is ever generated and none is kept once served. The
// model is deliberately preemption-free: whole sequences are served
// atomically in round-robin order among masters with pending work, each
// beat costs (1 + wait-states) transfer cycles, per-sequence idle budgets
// elapse concurrently with other masters' transfers, ownership changes
// insert one handover cycle, and windows where no master is ready — plus
// the post-script tail — classify as IDLE_HO, matching the analyzer's
// classifier for released-request idle cycles. Arbitration-policy
// effects the walk does not replay (fixed/rr mid-sequence preemption)
// are stationary mix shifts the prefix calibration cancels. The walk
// returns ctx's error if it is cancelled first.
func runWalk(ctx context.Context, ct *topo.Topology, cfgs []workload.Config, horizon, prefix uint64) (*walkResult, error) {
	type mstate struct {
		cur   *workload.Cursor
		ready uint64
	}
	ms := make([]mstate, len(cfgs))
	for i, cfg := range cfgs {
		cur, err := workload.NewCursor(cfg)
		if err != nil {
			return nil, err
		}
		ms[i] = mstate{cur: cur}
	}
	wt := newWaitTable(ct)
	em := &emitter{prefix: prefix, horizon: horizon}
	w := &walkResult{cycles: horizon}

	em.run(power.Idle, startupLatency)
	last := -1
	for step := 0; em.t < horizon; step++ {
		if step%walkCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Round-robin pick among ready masters, starting after the last
		// served one.
		pick, c := -1, last
		for range ms {
			if c++; c == len(ms) {
				c = 0
			}
			if ms[c].cur.Remaining() > 0 && ms[c].ready <= em.t {
				pick = c
				break
			}
		}
		if pick < 0 {
			// Nobody ready: idle until the earliest pending master wakes,
			// or break to the tail when every script is drained.
			var nextReady uint64
			pending := false
			for i := range ms {
				if ms[i].cur.Remaining() > 0 {
					if !pending || ms[i].ready < nextReady {
						nextReady = ms[i].ready
					}
					pending = true
				}
			}
			if !pending {
				break
			}
			gap := uint64(1)
			if nextReady > em.t {
				gap = nextReady - em.t
			}
			em.run(power.IdleHO, gap)
			continue
		}
		if last >= 0 && last != pick {
			em.run(power.IdleHO, 1)
			w.handovers++
		}
		st := &ms[pick]
		sh, _ := st.cur.NextShape()
		w.serve(em, wt, sh)
		st.ready = em.t + uint64(sh.IdleAfter)
		last = pick
	}
	if em.t < horizon {
		tail := power.Idle
		if em.havePrev && last >= 0 {
			tail = power.IdleHO
		}
		tailStart := em.t
		em.run(tail, horizon-em.t)
		if run := horizon - tailStart; tail == power.IdleHO && run > 1 {
			// The first tail cycle is the (prev -> IDLE_HO) transition;
			// the rest are the dead-bus self-loop that calibrate prices
			// analytically rather than against the busy prefix.
			w.tailFull = run - 1
			if s := tailStart + 1; s < prefix {
				w.tailPre = prefix - s
			}
		}
	}
	w.full = em.full
	w.pre = em.pre
	transfer := w.beats + w.waits
	if horizon > transfer {
		w.idle = horizon - transfer
	}
	return w, nil
}

// serve emits one sequence: a WRITE then a READ of sh.Beats beats at each
// of its pair addresses, every beat costing 1 + the slave's wait states.
// A sequence whose pairs all cost the same and that ends inside the
// horizon on one side of the prefix boundary is counted in O(1); any
// other goes op by op, up to the horizon.
func (w *walkResult) serve(em *emitter, wt waitTable, sh workload.Shape) {
	beats := uint64(sh.Beats)
	if waits, ok := wt.common(sh.Addrs); ok && em.pairs(uint64(len(sh.Addrs)), beats*(1+waits)) {
		ops := 2 * uint64(len(sh.Addrs))
		w.beats += ops * beats
		w.nonseq += ops
		w.seq += ops * (beats - 1)
		w.waits += ops * beats * waits
		return
	}
	for _, addr := range sh.Addrs {
		waits := uint64(wt.at(addr))
		for _, state := range [2]power.State{power.Write, power.Read} {
			if em.t >= em.horizon {
				return
			}
			t0 := em.t
			em.run(state, beats*(1+waits))
			served := em.t - t0
			fit := served
			if waits > 0 {
				fit = served / (1 + waits)
			}
			w.beats += fit
			if fit > 0 {
				w.nonseq++
				w.seq += fit - 1
			}
			w.waits += served - fit
		}
	}
}
