package ahb

import (
	"testing"

	"ahbpower/internal/sim"
)

// testSystem bundles a bus with its kernel, masters and memory slaves.
type testSystem struct {
	k       *sim.Kernel
	bus     *Bus
	masters []*Master
	slaves  []*MemorySlave
	mon     *Monitor
}

// newTestSystem builds an AHB with the given master/slave counts; each
// slave owns a 4 KB region starting at s*0x1000 and has the given wait
// states.
func newTestSystem(t *testing.T, nMasters, nSlaves, waits int, pol ArbPolicy) *testSystem {
	t.Helper()
	k := sim.NewKernel()
	var regions []Region
	for s := 0; s < nSlaves; s++ {
		regions = append(regions, Region{Start: uint32(s) * 0x1000, Size: 0x1000, Slave: s})
	}
	bus, err := New(k, Config{
		NumMasters:  nMasters,
		NumSlaves:   nSlaves,
		Regions:     regions,
		ClockPeriod: 10 * sim.Nanosecond,
		DataWidth:   32,
		Policy:      pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := &testSystem{k: k, bus: bus, mon: NewMonitor(bus)}
	for m := 0; m < nMasters; m++ {
		mm, err := NewMaster(bus, m)
		if err != nil {
			t.Fatal(err)
		}
		mm.KeepResults(true)
		ts.masters = append(ts.masters, mm)
	}
	for s := 0; s < nSlaves; s++ {
		sl, err := NewMemorySlave(bus, s, waits)
		if err != nil {
			t.Fatal(err)
		}
		ts.slaves = append(ts.slaves, sl)
	}
	return ts
}

// run advances the simulation by n bus cycles and fails on kernel or
// protocol errors.
func (ts *testSystem) run(t *testing.T, n uint64) {
	t.Helper()
	if err := ts.k.RunCycles(ts.bus.Clk, n); err != nil {
		t.Fatal(err)
	}
}

// checkClean asserts the protocol monitor saw no violations.
func (ts *testSystem) checkClean(t *testing.T) {
	t.Helper()
	for _, e := range ts.mon.Errors() {
		t.Errorf("protocol violation: %v", e)
	}
}

func TestConfigValidate(t *testing.T) {
	base := Config{NumMasters: 2, NumSlaves: 2, ClockPeriod: 10 * sim.Nanosecond, DataWidth: 32}
	if err := base.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{NumMasters: 0, NumSlaves: 1, ClockPeriod: 1, DataWidth: 32},
		{NumMasters: 17, NumSlaves: 1, ClockPeriod: 1, DataWidth: 32},
		{NumMasters: 1, NumSlaves: 0, ClockPeriod: 1, DataWidth: 32},
		{NumMasters: 1, NumSlaves: 1, ClockPeriod: 1, DataWidth: 13},
		{NumMasters: 1, NumSlaves: 1, ClockPeriod: 0, DataWidth: 32},
		{NumMasters: 1, NumSlaves: 1, ClockPeriod: 1, DataWidth: 32, DefaultMaster: 5},
		{NumMasters: 1, NumSlaves: 1, ClockPeriod: 1, DataWidth: 32,
			Regions: []Region{{Start: 0, Size: 0x100, Slave: 3}}},
		{NumMasters: 1, NumSlaves: 1, ClockPeriod: 1, DataWidth: 32,
			Regions: []Region{{Start: 0, Size: 0, Slave: 0}}},
		{NumMasters: 1, NumSlaves: 2, ClockPeriod: 1, DataWidth: 32,
			Regions: []Region{{Start: 0, Size: 0x200, Slave: 0}, {Start: 0x100, Size: 0x100, Slave: 1}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSingleWriteRead(t *testing.T) {
	ts := newTestSystem(t, 1, 1, 0, PolicySticky)
	ts.masters[0].Enqueue(Sequence{Ops: []Op{
		{Kind: OpWrite, Addr: 0x100, Data: []uint32{0xDEADBEEF}},
		{Kind: OpRead, Addr: 0x100},
	}})
	ts.run(t, 50)
	res := ts.masters[0].Results()
	if len(res) != 2 {
		t.Fatalf("results=%d, want 2 (%+v)", len(res), res)
	}
	if !res[0].Write || res[0].Addr != 0x100 || res[0].Resp != RespOkay {
		t.Errorf("write result %+v", res[0])
	}
	if res[1].Write || res[1].Data != 0xDEADBEEF || res[1].Resp != RespOkay {
		t.Errorf("read result %+v, want data 0xDEADBEEF", res[1])
	}
	if ts.slaves[0].Peek(0x100) != 0xDEADBEEF {
		t.Errorf("memory=%#x", ts.slaves[0].Peek(0x100))
	}
	if !ts.masters[0].Done() {
		t.Error("master must be done")
	}
	ts.checkClean(t)
}

func TestWriteReadWithWaitStates(t *testing.T) {
	for _, waits := range []int{1, 2, 5} {
		ts := newTestSystem(t, 1, 1, waits, PolicySticky)
		ts.masters[0].Enqueue(Sequence{Ops: []Op{
			{Kind: OpWrite, Addr: 0x40, Data: []uint32{0xCAFE0000}},
			{Kind: OpRead, Addr: 0x40},
		}})
		ts.run(t, 100)
		res := ts.masters[0].Results()
		if len(res) != 2 {
			t.Fatalf("waits=%d: results=%d, want 2", waits, len(res))
		}
		if res[1].Data != 0xCAFE0000 {
			t.Errorf("waits=%d: read=%#x", waits, res[1].Data)
		}
		if ts.masters[0].Stats().WaitCycle == 0 {
			t.Errorf("waits=%d: master saw no wait cycles", waits)
		}
		ts.checkClean(t)
	}
}

func TestIncr4BurstWrite(t *testing.T) {
	ts := newTestSystem(t, 1, 1, 0, PolicySticky)
	data := []uint32{0x11, 0x22, 0x33, 0x44}
	ts.masters[0].Enqueue(Sequence{Ops: []Op{
		{Kind: OpWrite, Addr: 0x200, Data: data},
		{Kind: OpRead, Addr: 0x200, Beats: 4},
	}})
	ts.run(t, 60)
	res := ts.masters[0].Results()
	if len(res) != 8 {
		t.Fatalf("results=%d, want 8", len(res))
	}
	for i, want := range data {
		if ts.slaves[0].Peek(0x200+uint32(i)*4) != want {
			t.Errorf("mem[%d]=%#x, want %#x", i, ts.slaves[0].Peek(0x200+uint32(i)*4), want)
		}
		if res[4+i].Data != want {
			t.Errorf("read beat %d=%#x, want %#x", i, res[4+i].Data, want)
		}
		if res[4+i].Addr != 0x200+uint32(i)*4 {
			t.Errorf("read beat %d addr=%#x", i, res[4+i].Addr)
		}
	}
	ts.checkClean(t)
}

func TestBurstBackToBackIsPipelined(t *testing.T) {
	// An INCR8 write to a zero-wait slave must take ~1 cycle per beat.
	ts := newTestSystem(t, 1, 1, 0, PolicySticky)
	data := make([]uint32, 8)
	for i := range data {
		data[i] = uint32(i)
	}
	ts.masters[0].Enqueue(Sequence{Ops: []Op{{Kind: OpWrite, Addr: 0, Data: data}}})
	start := ts.bus.Cycles()
	for i := 0; i < 40 && !ts.masters[0].Done(); i++ {
		ts.run(t, 1)
	}
	elapsed := ts.bus.Cycles() - start
	if elapsed > 14 {
		t.Errorf("8-beat burst took %d cycles, want <=14 (pipelined)", elapsed)
	}
	ts.checkClean(t)
}

func TestWrap4Burst(t *testing.T) {
	ts := newTestSystem(t, 1, 1, 0, PolicySticky)
	// WRAP4 starting at 0x38: addresses 0x38,0x3C,0x30,0x34.
	ts.masters[0].Enqueue(Sequence{Ops: []Op{
		{Kind: OpWrite, Addr: 0x38, Data: []uint32{1, 2, 3, 4}, Burst: BurstWrap4},
	}})
	ts.run(t, 40)
	want := map[uint32]uint32{0x38: 1, 0x3C: 2, 0x30: 3, 0x34: 4}
	for addr, v := range want {
		if got := ts.slaves[0].Peek(addr); got != v {
			t.Errorf("mem[%#x]=%d, want %d", addr, got, v)
		}
	}
	ts.checkClean(t)
}

func TestBusyInsertion(t *testing.T) {
	ts := newTestSystem(t, 1, 1, 0, PolicySticky)
	ts.masters[0].Enqueue(Sequence{Ops: []Op{
		{Kind: OpWrite, Addr: 0x10, Data: []uint32{7, 8, 9, 10},
			BusyBefore: map[int]int{2: 2}}, // two BUSY cycles before beat 2
	}})
	ts.run(t, 60)
	for i, want := range []uint32{7, 8, 9, 10} {
		if got := ts.slaves[0].Peek(0x10 + uint32(i)*4); got != want {
			t.Errorf("mem[%d]=%d, want %d", i, got, want)
		}
	}
	if ts.masters[0].Stats().BusyCycle != 2 {
		t.Errorf("BusyCycle=%d, want 2", ts.masters[0].Stats().BusyCycle)
	}
	if ts.mon.Counts()["busy"] != 2 {
		t.Errorf("monitor busy=%d, want 2", ts.mon.Counts()["busy"])
	}
	ts.checkClean(t)
}

func TestTwoMastersArbitration(t *testing.T) {
	ts := newTestSystem(t, 2, 2, 0, PolicySticky)
	ts.masters[0].Enqueue(Sequence{Ops: []Op{
		{Kind: OpWrite, Addr: 0x100, Data: []uint32{0xA0}},
		{Kind: OpRead, Addr: 0x100},
	}, IdleAfter: 4})
	ts.masters[1].Enqueue(Sequence{Ops: []Op{
		{Kind: OpWrite, Addr: 0x1100, Data: []uint32{0xB0}},
		{Kind: OpRead, Addr: 0x1100},
	}, IdleAfter: 4})
	ts.run(t, 200)
	if !ts.masters[0].Done() || !ts.masters[1].Done() {
		t.Fatal("both masters must complete")
	}
	r0 := ts.masters[0].Results()
	r1 := ts.masters[1].Results()
	if r0[1].Data != 0xA0 {
		t.Errorf("master0 read=%#x", r0[1].Data)
	}
	if r1[1].Data != 0xB0 {
		t.Errorf("master1 read=%#x", r1[1].Data)
	}
	if ts.mon.Counts()["handover"] == 0 {
		t.Error("expected at least one bus handover")
	}
	ts.checkClean(t)
}

func TestStickyArbitrationIsNonInterruptible(t *testing.T) {
	// Master 1 (lower priority) starts a long sequence; master 0 requests
	// mid-way. With the sticky policy master 1 must keep the bus until its
	// sequence ends (the paper's non-interruptible WRITE-READ sequences).
	ts := newTestSystem(t, 2, 1, 0, PolicySticky)
	var ops []Op
	for i := 0; i < 10; i++ {
		ops = append(ops,
			Op{Kind: OpWrite, Addr: uint32(0x400 + 4*i), Data: []uint32{uint32(i)}},
			Op{Kind: OpRead, Addr: uint32(0x400 + 4*i)})
	}
	ts.masters[1].Enqueue(Sequence{Ops: ops})
	ts.run(t, 5) // let master 1 get going
	ts.masters[0].Enqueue(Sequence{Ops: []Op{{Kind: OpWrite, Addr: 0x0, Data: []uint32{0xFF}}}})
	ts.run(t, 100)
	if !ts.masters[0].Done() || !ts.masters[1].Done() {
		t.Fatal("both masters must complete")
	}
	// Master 1's beats must be contiguous in time: its last beat cycle
	// minus first beat cycle equals beats-1 when never interrupted.
	r1 := ts.masters[1].Results()
	span := r1[len(r1)-1].Cycle - r1[0].Cycle
	if span != uint64(len(r1)-1) {
		t.Errorf("master1 beats span %d cycles for %d beats: sequence was interrupted", span, len(r1))
	}
	ts.checkClean(t)
}

func TestFixedPriorityPreempts(t *testing.T) {
	ts := newTestSystem(t, 2, 1, 0, PolicyFixed)
	var data []uint32
	for i := 0; i < 16; i++ {
		data = append(data, uint32(0x100+i))
	}
	ts.masters[1].Enqueue(Sequence{Ops: []Op{{Kind: OpWrite, Addr: 0x200, Data: data}}})
	ts.run(t, 4)
	ts.masters[0].Enqueue(Sequence{Ops: []Op{{Kind: OpWrite, Addr: 0x0, Data: []uint32{0xAA}}}})
	ts.run(t, 100)
	if !ts.masters[0].Done() || !ts.masters[1].Done() {
		t.Fatal("both masters must complete")
	}
	// All 16 beats must still land correctly despite preemption.
	for i, want := range data {
		if got := ts.slaves[0].Peek(0x200 + uint32(i)*4); got != want {
			t.Errorf("mem[%d]=%#x, want %#x", i, got, want)
		}
	}
	if got := ts.slaves[0].Peek(0); got != 0xAA {
		t.Errorf("master0 write=%#x", got)
	}
	ts.checkClean(t)
}

func TestRoundRobinFairness(t *testing.T) {
	ts := newTestSystem(t, 3, 1, 0, PolicyRoundRobin)
	for m := 0; m < 3; m++ {
		var seqs []Sequence
		for i := 0; i < 5; i++ {
			seqs = append(seqs, Sequence{Ops: []Op{
				{Kind: OpWrite, Addr: uint32(0x100*m + 4*i), Data: []uint32{uint32(m<<8 | i)}},
			}, IdleAfter: 1})
		}
		ts.masters[m].Enqueue(seqs...)
	}
	ts.run(t, 300)
	for m := 0; m < 3; m++ {
		if !ts.masters[m].Done() {
			t.Errorf("master %d starved", m)
		}
	}
	ts.checkClean(t)
}

func TestUnmappedAddressGetsError(t *testing.T) {
	ts := newTestSystem(t, 1, 1, 0, PolicySticky)
	ts.masters[0].Enqueue(Sequence{Ops: []Op{
		{Kind: OpWrite, Addr: 0xF0000000, Data: []uint32{1}}, // unmapped
		{Kind: OpWrite, Addr: 0x10, Data: []uint32{2}},       // mapped
	}})
	ts.run(t, 50)
	res := ts.masters[0].Results()
	if len(res) != 2 {
		t.Fatalf("results=%d, want 2", len(res))
	}
	if res[0].Resp != RespError {
		t.Errorf("unmapped write resp=%s, want ERROR", RespName(res[0].Resp))
	}
	if res[1].Resp != RespOkay || ts.slaves[0].Peek(0x10) != 2 {
		t.Error("mapped write after error must succeed")
	}
	if ts.masters[0].Stats().Errors != 1 {
		t.Errorf("Errors=%d, want 1", ts.masters[0].Stats().Errors)
	}
	ts.checkClean(t)
}

func TestDefaultMasterGrantedWhenIdle(t *testing.T) {
	ts := newTestSystem(t, 2, 1, 0, PolicySticky)
	ts.run(t, 10)
	if got := ts.bus.GrantIdx.Read(); got != 0 {
		t.Errorf("idle grant=%d, want default master 0", got)
	}
	if ts.bus.HTrans.Read() != TransIdle {
		t.Error("idle bus must show IDLE")
	}
	ts.checkClean(t)
}

func TestLockedSequenceHoldsBus(t *testing.T) {
	ts := newTestSystem(t, 2, 1, 0, PolicyFixed)
	// Master 1 runs a locked burst; master 0 (higher priority under
	// PolicyFixed) requests mid-way but must not preempt a locked master.
	var data []uint32
	for i := 0; i < 8; i++ {
		data = append(data, uint32(i+1))
	}
	ts.masters[1].Enqueue(Sequence{Ops: []Op{{Kind: OpWrite, Addr: 0x300, Data: data, Lock: true}}})
	ts.run(t, 4)
	ts.masters[0].Enqueue(Sequence{Ops: []Op{{Kind: OpWrite, Addr: 0x0, Data: []uint32{0xEE}}}})
	ts.run(t, 100)
	if !ts.masters[0].Done() || !ts.masters[1].Done() {
		t.Fatal("both masters must complete")
	}
	r1 := ts.masters[1].Results()
	span := r1[len(r1)-1].Cycle - r1[0].Cycle
	if span != uint64(len(r1)-1) {
		t.Errorf("locked burst interrupted: %d beats span %d cycles", len(r1), span)
	}
	ts.checkClean(t)
}

func TestDataWidthMasking(t *testing.T) {
	k := sim.NewKernel()
	bus, err := New(k, Config{
		NumMasters:  1,
		NumSlaves:   1,
		Regions:     []Region{{Start: 0, Size: 0x1000, Slave: 0}},
		ClockPeriod: 10 * sim.Nanosecond,
		DataWidth:   16,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewMaster(bus, 0)
	m.KeepResults(true)
	sl, _ := NewMemorySlave(bus, 0, 0)
	m.Enqueue(Sequence{Ops: []Op{
		{Kind: OpWrite, Addr: 0x10, Data: []uint32{0xFFFF1234}, Size: Size16},
		{Kind: OpRead, Addr: 0x10, Size: Size16},
	}})
	if err := k.RunCycles(bus.Clk, 30); err != nil {
		t.Fatal(err)
	}
	if got := sl.Peek(0x10); got != 0x1234 {
		t.Errorf("mem=%#x, want 0x1234 (masked to 16 bits)", got)
	}
	if got := m.Results()[1].Data; got != 0x1234 {
		t.Errorf("read=%#x, want 0x1234", got)
	}
}

func TestMasterWithEmptyScriptStaysIdle(t *testing.T) {
	ts := newTestSystem(t, 2, 1, 0, PolicySticky)
	// Master 1 never enqueues anything: the "simple default master" role.
	ts.masters[0].Enqueue(Sequence{Ops: []Op{{Kind: OpWrite, Addr: 0, Data: []uint32{1}}}})
	ts.run(t, 50)
	if got := ts.masters[1].Stats().Beats; got != 0 {
		t.Errorf("idle master performed %d beats", got)
	}
	if !ts.masters[0].Done() {
		t.Error("active master must complete")
	}
	ts.checkClean(t)
}

func TestBadPortIndexes(t *testing.T) {
	ts := newTestSystem(t, 1, 1, 0, PolicySticky)
	if _, err := NewMaster(ts.bus, 5); err == nil {
		t.Error("bad master index must fail")
	}
	if _, err := NewMemorySlave(ts.bus, 9, 0); err == nil {
		t.Error("bad slave index must fail")
	}
	if _, err := NewMemorySlave(ts.bus, 0, -1); err == nil {
		t.Error("negative waits must fail")
	}
}

func TestCycleInfoStream(t *testing.T) {
	ts := newTestSystem(t, 1, 1, 0, PolicySticky)
	var infos []CycleInfo
	ts.bus.OnCycle(func(ci CycleInfo) { infos = append(infos, ci) })
	ts.masters[0].Enqueue(Sequence{Ops: []Op{{Kind: OpWrite, Addr: 0x8, Data: []uint32{42}}}})
	ts.run(t, 20)
	if len(infos) < 15 {
		t.Fatalf("cycle infos=%d, want ~20", len(infos))
	}
	// Cycle numbers strictly increase.
	for i := 1; i < len(infos); i++ {
		if infos[i].Cycle != infos[i-1].Cycle+1 {
			t.Fatal("cycle numbering must be contiguous")
		}
	}
	// The write must appear on the bus exactly once as NONSEQ.
	nonseq := 0
	for _, ci := range infos {
		if ci.Trans == TransNonseq && ci.Write && ci.Addr == 0x8 {
			nonseq++
		}
	}
	if nonseq != 1 {
		t.Errorf("NONSEQ write observed %d times, want 1", nonseq)
	}
}

func TestMonitorFlagsKBBoundaryCrossing(t *testing.T) {
	ts := newTestSystem(t, 1, 1, 0, PolicySticky)
	// A 16-beat burst from 0x3F0 runs past 0x3FC into the next 1 KB block
	// at 0x400 — a protocol violation the monitor must flag (the workload
	// generator never emits such bursts; this script does so deliberately).
	data := make([]uint32, 16)
	ts.masters[0].Enqueue(Sequence{Ops: []Op{{Kind: OpWrite, Addr: 0x3F0, Data: data}}})
	ts.run(t, 60)
	found := false
	for _, e := range ts.mon.Errors() {
		if e.Rule == "kb-boundary" {
			found = true
		}
	}
	if !found {
		t.Error("monitor must flag a 1KB boundary crossing")
	}
}

func TestMonitorCleanOnWrapAtBlockEdge(t *testing.T) {
	ts := newTestSystem(t, 1, 1, 0, PolicySticky)
	// WRAP4 at the top of a 16-byte block wraps within it: legal.
	ts.masters[0].Enqueue(Sequence{Ops: []Op{
		{Kind: OpWrite, Addr: 0x3F8, Data: []uint32{1, 2, 3, 4}, Burst: BurstWrap4},
	}})
	ts.run(t, 40)
	ts.checkClean(t)
}
