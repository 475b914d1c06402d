package ahb_test

import (
	"math/rand"
	"testing"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/fault"
	"ahbpower/internal/sim"
)

// Non-OKAY responses come from fault plans compiled onto memory slaves.
// These tests live outside package ahb because fault imports ahb.

// forcedSystem is a bus with one zero-wait memory slave per 4 KB region
// (slave s at s*0x1000), a protocol monitor, result-keeping masters and
// a fault plan compiled on top.
type forcedSystem struct {
	k       *sim.Kernel
	bus     *ahb.Bus
	masters []*ahb.Master
	slaves  []*ahb.MemorySlave
	mon     *ahb.Monitor
	inj     *fault.Injector
}

// newForcedSystem builds the system for cfg, which must leave Regions,
// ClockPeriod and DataWidth unset, and attaches plan.
func newForcedSystem(t *testing.T, cfg ahb.Config, plan *fault.Plan) *forcedSystem {
	t.Helper()
	for s := 0; s < cfg.NumSlaves; s++ {
		cfg.Regions = append(cfg.Regions, ahb.Region{Start: uint32(s) * 0x1000, Size: 0x1000, Slave: s})
	}
	cfg.ClockPeriod = 10 * sim.Nanosecond
	cfg.DataWidth = 32
	k := sim.NewKernel()
	bus, err := ahb.New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := &forcedSystem{k: k, bus: bus, mon: ahb.NewMonitor(bus)}
	for m := 0; m < cfg.NumMasters; m++ {
		mm, err := ahb.NewMaster(bus, m)
		if err != nil {
			t.Fatal(err)
		}
		mm.KeepResults(true)
		fs.masters = append(fs.masters, mm)
	}
	for s := 0; s < cfg.NumSlaves; s++ {
		sl, err := ahb.NewMemorySlave(bus, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		fs.slaves = append(fs.slaves, sl)
	}
	if fs.inj, err = fault.Attach(bus, fs.masters, plan); err != nil {
		t.Fatal(err)
	}
	return fs
}

func (fs *forcedSystem) run(t *testing.T, n uint64) {
	t.Helper()
	if err := fs.k.RunCycles(fs.bus.Clk, n); err != nil {
		t.Fatal(err)
	}
}

func (fs *forcedSystem) checkClean(t *testing.T) {
	t.Helper()
	for _, e := range fs.mon.Errors() {
		t.Errorf("protocol violation: %v", e)
	}
}

// onSlave0 is a one-rule plan aimed at slave 0.
func onSlave0(r fault.Rule) *fault.Plan {
	r.Slave, r.Master = 0, -1
	return &fault.Plan{Seed: 1, Rules: []fault.Rule{r}}
}

func TestForcedErrorTwoCycleResponse(t *testing.T) {
	fs := newForcedSystem(t, ahb.Config{NumMasters: 1, NumSlaves: 1},
		onSlave0(fault.Rule{Kind: fault.KindError}))
	m := fs.masters[0]
	m.Enqueue(ahb.Sequence{Ops: []ahb.Op{{Kind: ahb.OpRead, Addr: 0x0}}})
	fs.run(t, 30)
	res := m.Results()
	if len(res) != 1 || res[0].Resp != ahb.RespError {
		t.Fatalf("results=%+v, want one ERROR", res)
	}
	if got := fs.inj.Stats().Errors; got != 1 {
		t.Errorf("injected errors=%d", got)
	}
	fs.checkClean(t)
}

func TestForcedRetryEventuallyCompletes(t *testing.T) {
	// Two firings of three RETRYs each: a prob-1 rule fires again on the
	// re-attempt until its count is spent, so all six land on the write.
	fs := newForcedSystem(t, ahb.Config{NumMasters: 1, NumSlaves: 1},
		onSlave0(fault.Rule{Kind: fault.KindRetry, Count: 2, Retries: 3}))
	m := fs.masters[0]
	m.Enqueue(ahb.Sequence{Ops: []ahb.Op{
		{Kind: ahb.OpWrite, Addr: 0x20, Data: []uint32{0x77}},
		{Kind: ahb.OpRead, Addr: 0x20},
	}})
	fs.run(t, 100)
	res := m.Results()
	if len(res) != 2 {
		t.Fatalf("results=%d, want 2", len(res))
	}
	if res[1].Data != 0x77 {
		t.Errorf("read=%#x, want 0x77", res[1].Data)
	}
	if got, want := m.Stats().Retries, fs.inj.Stats().Retries; got != want || want != 6 {
		t.Errorf("master retries=%d, injected=%d, want 6 each", got, want)
	}
	if got := fs.slaves[0].Peek(0x20); got != 0x77 {
		t.Errorf("mem=%#x", got)
	}
	fs.checkClean(t)
}

func TestForcedSplitResume(t *testing.T) {
	fs := newForcedSystem(t, ahb.Config{NumMasters: 2, NumSlaves: 2},
		onSlave0(fault.Rule{Kind: fault.KindSplit, Count: 1, Hold: 5}))
	m0, m1 := fs.masters[0], fs.masters[1]
	// Master 0 is split on slave 0; master 1 proceeds on slave 1 while
	// master 0 is split out.
	m0.Enqueue(ahb.Sequence{Ops: []ahb.Op{{Kind: ahb.OpWrite, Addr: 0x40, Data: []uint32{0x5511}}}})
	m1.Enqueue(ahb.Sequence{Ops: []ahb.Op{
		{Kind: ahb.OpWrite, Addr: 0x1040, Data: []uint32{0x99}},
		{Kind: ahb.OpRead, Addr: 0x1040},
	}})
	fs.run(t, 100)
	if !m0.Done() {
		t.Fatal("split master must eventually complete")
	}
	if got := fs.slaves[0].Peek(0x40); got != 0x5511 {
		t.Errorf("slave 0 mem=%#x, want 0x5511", got)
	}
	if m0.Stats().Splits != 1 {
		t.Errorf("splits=%d, want 1", m0.Stats().Splits)
	}
	if !m1.Done() {
		t.Error("master1 must complete while master0 is split")
	}
	if fs.bus.SplitMask() != 0 {
		t.Errorf("split mask=%#x, want 0 after resume", fs.bus.SplitMask())
	}
	fs.checkClean(t)
}

// TestSplitMaskBlocksGrant pins the arbiter half of the SPLIT protocol:
// from the cycle a master is split-masked until its resume pulse, the
// arbiter must never grant it again — even when its request line is
// asserted — while other masters keep progressing through the window.
func TestSplitMaskBlocksGrant(t *testing.T) {
	fs := newForcedSystem(t, ahb.Config{
		NumMasters: 2,
		NumSlaves:  2,
		// Keep the idle-bus fallback away from the masked master so the
		// test observes arbitration, not the default-grant path.
		DefaultMaster: 1,
	}, onSlave0(fault.Rule{Kind: fault.KindSplit, Count: 1, Hold: 12}))
	bus, m0, m1 := fs.bus, fs.masters[0], fs.masters[1]
	// Master 0 is split on slave 0; master 1 keeps the bus busy on slave 1
	// across the whole mask window. The leading idle keeps the boot-granted
	// default master quiet until the monitor has seen a full cycle.
	m0.Enqueue(ahb.Sequence{Ops: []ahb.Op{{Kind: ahb.OpWrite, Addr: 0x40, Data: []uint32{0xAB}}}})
	m1.Enqueue(ahb.Sequence{Ops: []ahb.Op{
		{Kind: ahb.OpIdle, IdleCycles: 3},
		{Kind: ahb.OpWrite, Addr: 0x1040, Data: []uint32{1, 2, 3, 4}},
		{Kind: ahb.OpRead, Addr: 0x1040, Beats: 4},
		{Kind: ahb.OpWrite, Addr: 0x1080, Data: []uint32{5, 6, 7, 8}},
	}})

	// The watcher runs after every component (registered last): it forces
	// the masked master's request line high — a rogue re-request the
	// arbiter must ignore — and records any re-grant inside the window.
	// The grant legitimately stays with (or returns to) the split master
	// through the two-cycle SPLIT response itself, so policing starts
	// three cycles into the mask window.
	var cyc, maskStart, maskedCycles, regrants int
	grantLeft := false
	fs.k.MethodNoInit("split-watch", func() {
		cyc++
		if bus.SplitMask()&1 == 0 {
			return
		}
		if maskedCycles == 0 {
			maskStart = cyc
		}
		maskedCycles++
		bus.M[0].BusReq.Write(true)
		g0 := bus.Grant[0].Read()
		if cyc >= maskStart+3 {
			if grantLeft && g0 {
				regrants++
			}
			if !g0 {
				grantLeft = true
			}
		}
	}, bus.Clk.Posedge())

	fs.run(t, 200)
	if maskedCycles == 0 {
		t.Fatal("split mask window never opened")
	}
	if !grantLeft {
		t.Error("grant never left the split master during the mask window")
	}
	if regrants != 0 {
		t.Errorf("masked master re-granted %d times inside the mask window", regrants)
	}
	if !m0.Done() {
		t.Error("split master must complete after resume")
	}
	if !m1.Done() {
		t.Error("master 1 must complete across the mask window")
	}
	if m0.Stats().Splits != 1 {
		t.Errorf("splits=%d, want 1", m0.Stats().Splits)
	}
	if bus.SplitMask() != 0 {
		t.Errorf("split mask=%#x, want 0 after resume", bus.SplitMask())
	}
	if got := fs.slaves[0].Peek(0x40); got != 0xAB {
		t.Errorf("slave 0 mem=%#x, want 0xAB", got)
	}
	fs.checkClean(t)
}

// TestSplitMaskRoundRobinSkips covers the same arbitration contract under
// the rotating policy, where the skip is a different code path than the
// sticky arbiter's.
func TestSplitMaskRoundRobinSkips(t *testing.T) {
	fs := newForcedSystem(t, ahb.Config{
		NumMasters:    3,
		NumSlaves:     2,
		Policy:        ahb.PolicyRoundRobin,
		DefaultMaster: 2,
	}, onSlave0(fault.Rule{Kind: fault.KindSplit, Count: 1, Hold: 10}))
	bus, masters := fs.bus, fs.masters
	masters[0].Enqueue(ahb.Sequence{Ops: []ahb.Op{{Kind: ahb.OpWrite, Addr: 0x20, Data: []uint32{0x111}}}})
	masters[1].Enqueue(ahb.Sequence{Ops: []ahb.Op{{Kind: ahb.OpWrite, Addr: 0x1020, Data: []uint32{0x222}}}})
	masters[2].Enqueue(ahb.Sequence{Ops: []ahb.Op{
		{Kind: ahb.OpIdle, IdleCycles: 3},
		{Kind: ahb.OpWrite, Addr: 0x1040, Data: []uint32{0x333}},
	}})

	// As above: the two-cycle SPLIT response may keep the grant with the
	// split master, so police re-grants from three cycles into the window.
	var cyc, maskStart, maskedCycles, regrants int
	grantLeft := false
	fs.k.MethodNoInit("rr-split-watch", func() {
		cyc++
		if bus.SplitMask()&1 == 0 {
			return
		}
		if maskedCycles == 0 {
			maskStart = cyc
		}
		maskedCycles++
		g0 := bus.Grant[0].Read()
		if cyc >= maskStart+3 {
			if grantLeft && g0 {
				regrants++
			}
			if !g0 {
				grantLeft = true
			}
		}
	}, bus.Clk.Posedge())

	fs.run(t, 200)
	if regrants != 0 {
		t.Errorf("masked master re-granted %d times under round-robin", regrants)
	}
	for i, m := range masters {
		if !m.Done() {
			t.Errorf("master %d must complete", i)
		}
	}
	if bus.SplitMask() != 0 {
		t.Errorf("split mask=%#x, want 0 after resume", bus.SplitMask())
	}
	fs.checkClean(t)
}

// TestRandomRetryInjection answers a random half of the transfer attempts
// on a memory slave with a run of RETRYs and checks data integrity
// survives the storm.
func TestRandomRetryInjection(t *testing.T) {
	for _, retries := range []int{1, 2, 5} {
		fs := newForcedSystem(t, ahb.Config{NumMasters: 1, NumSlaves: 1}, &fault.Plan{
			Seed:  int64(retries),
			Rules: []fault.Rule{{Kind: fault.KindRetry, Slave: 0, Master: -1, Prob: 0.5, Retries: retries}},
		})
		m := fs.masters[0]
		rng := rand.New(rand.NewSource(int64(retries)))
		want := map[uint32]uint32{}
		var ops []ahb.Op
		for i := 0; i < 20; i++ {
			addr := uint32(rng.Intn(0x100)) &^ 3
			val := rng.Uint32()
			want[addr] = val
			ops = append(ops, ahb.Op{Kind: ahb.OpWrite, Addr: addr, Data: []uint32{val}})
		}
		for addr := range want {
			ops = append(ops, ahb.Op{Kind: ahb.OpRead, Addr: addr})
		}
		m.Enqueue(ahb.Sequence{Ops: ops})
		fs.run(t, 2000)
		if !m.Done() {
			t.Fatalf("retries=%d: master did not finish", retries)
		}
		for _, e := range fs.mon.Errors() {
			t.Errorf("retries=%d: %v", retries, e)
		}
		if got, inj := m.Stats().Retries, fs.inj.Stats().Retries; got != inj || inj == 0 {
			t.Errorf("retries=%d: master saw %d RETRYs, injector forced %d", retries, got, inj)
		}
		for _, r := range m.Results() {
			if r.Write {
				continue
			}
			if r.Data != want[r.Addr] {
				t.Errorf("retries=%d: read %#x@%#x, want %#x", retries, r.Data, r.Addr, want[r.Addr])
			}
		}
		for addr, val := range want {
			if got := fs.slaves[0].Peek(addr); got != val {
				t.Errorf("retries=%d: mem[%#x]=%#x, want %#x", retries, addr, got, val)
			}
		}
	}
}
