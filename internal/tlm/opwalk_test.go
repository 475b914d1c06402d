package tlm

import (
	"context"
	"testing"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
	"ahbpower/internal/power"
	"ahbpower/internal/topo"
	"ahbpower/internal/workload"
)

// opWalk is the transaction walk as it was before it consumed sequence
// shapes: it draws every sequence with Cursor.Next and emits it op by op.
// It is kept verbatim as the oracle runWalk must match in every field.
//
// opWalk serves each master's traffic at transaction granularity and
// counts power-FSM instructions over the horizon. Every master gets a
// fresh cursor on its configuration, and the walk pulls the master's
// next sequence only when it serves that master, so no traffic past the
// horizon is ever generated and none is kept once served. The model is
// deliberately preemption-free: whole sequences are served atomically in
// round-robin order among masters with pending work, each beat costs
// (1 + wait-states) transfer cycles, per-sequence idle budgets elapse
// concurrently with other masters' transfers, ownership changes insert
// one handover cycle, and windows where no master is ready — plus the
// post-script tail — classify as IDLE_HO, matching the analyzer's
// classifier for released-request idle cycles. Arbitration-policy
// effects the walk does not replay (fixed/rr mid-sequence preemption)
// are stationary mix shifts the prefix calibration cancels. The walk
// returns ctx's error if it is cancelled first.
func opWalk(ctx context.Context, ct *topo.Topology, cfgs []workload.Config, horizon, prefix uint64) (*walkResult, error) {
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
		pick := -1
		for i := 1; i <= len(ms); i++ {
			c := ((last+i)%len(ms) + len(ms)) % len(ms)
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
		seq, _ := st.cur.Next()
		for i := range seq.Ops {
			if em.t >= horizon {
				break
			}
			// Generated ops are WRITE/READ bursts: a write's length is its
			// data, a read's its Beats.
			op := &seq.Ops[i]
			state, beats := power.Read, uint64(op.Beats)
			if op.Kind == ahb.OpWrite {
				state, beats = power.Write, uint64(len(op.Data))
			}
			waits := uint64(wt.at(op.Addr))
			t0 := em.t
			em.run(state, beats*(1+waits))
			served := em.t - t0
			fit := served / (1 + waits)
			w.beats += fit
			if fit > 0 {
				w.nonseq++
				w.seq += fit - 1
			}
			w.waits += served - fit
		}
		st.ready = em.t + uint64(seq.IdleAfter)
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

// walkCase builds one walk comparison's inputs: traffic for the given
// number of masters, in bursts of burst beats, on a bus whose slaves
// insert waits wait states, or nonuniformSlaves' 0/2/4 (with an unmapped
// gap) when waits is negative. Each master has the given number of
// sequences of 1..pairsMax pairs with idle gaps of 0..idleMax.
func walkCase(seed int64, masters, burst, waits, pairsMax, idleMax, sequences int) (topo.Topology, []workload.Config) {
	ct := topo.Topology{Slaves: nonuniformSlaves()}
	if waits >= 0 {
		sys := core.PaperSystem()
		sys.SlaveWaits = waits
		ct = sys.Topology().Canonical()
	}
	cfgs := make([]workload.Config, masters)
	for i := range cfgs {
		cfgs[i] = workload.Config{
			Seed:         seed + int64(i)*7919,
			NumSequences: sequences,
			PairsMin:     1, PairsMax: pairsMax,
			IdleMax:    idleMax,
			AddrSize:   3 * 0x1000,
			Pattern:    workload.Pattern(i % 3),
			BurstBeats: burst,
		}
		if i%2 == 1 {
			cfgs[i].LocalityWindow = 0x400
		}
	}
	return ct, cfgs
}

// FuzzWalkMatchesOpWalk pins the shape walk to the op-by-op walk it
// replaced: over 1-4 masters, every burst length, uniform and non-uniform
// wait states, horizons shorter than the calibration prefix, straddling
// it and far past it, and scripts that drain before the horizon, every
// field of the walk's result must equal the oracle's. The seed table is
// that matrix.
func FuzzWalkMatchesOpWalk(f *testing.F) {
	horizons := [][2]uint32{{300, 512}, {9_000, 8_192}, {200_000, 8_192}}
	for masters := uint8(1); masters <= 4; masters++ {
		for burst := uint8(0); burst < 5; burst++ {
			for _, waits := range []int8{0, 2, -1} {
				for hi, h := range horizons {
					sequences := uint16(h[0]/20 + 4)
					if hi == 2 && burst%2 == 0 {
						sequences = 40 // drains long before the horizon
					}
					f.Add(int64(masters)*31+int64(burst), masters, burst, waits, uint8(8), uint8(6), sequences, h[0], h[1])
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, masters, burst uint8, waits int8, pairsMax, idleMax uint8,
		sequences uint16, horizon, prefix uint32) {
		ct, cfgs := walkCase(seed, 1+int(masters%4), []int{0, 1, 4, 8, 16}[burst%5], int(waits%3),
			1+int(pairsMax%24), int(idleMax%64), 1+int(sequences%20_000))
		h, p := 1+uint64(horizon%400_000), uint64(prefix%16_384)
		want, err := opWalk(context.Background(), &ct, cfgs, h, p)
		if err != nil {
			t.Fatalf("op walk: %v", err)
		}
		got, err := runWalk(context.Background(), &ct, cfgs, h, p)
		if err != nil {
			t.Fatalf("shape walk: %v", err)
		}
		if *got != *want {
			t.Fatalf("horizon %d, prefix %d, %+v:\nshape walk %+v\nop walk    %+v", h, p, cfgs, *got, *want)
		}
	})
}
