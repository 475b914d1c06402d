package ahbpower_test

import (
	"strings"
	"testing"

	"ahbpower"
)

func TestPublicQuickstartFlow(t *testing.T) {
	sys, err := ahbpower.NewSystem(ahbpower.PaperSystem())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadPaperWorkload(2000); err != nil {
		t.Fatal(err)
	}
	an, err := ahbpower.Attach(sys, ahbpower.WithStyle(ahbpower.StyleGlobal))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(2000); err != nil {
		t.Fatal(err)
	}
	r := an.Report()
	if r.TotalEnergy <= 0 || r.Cycles != 2000 {
		t.Errorf("report: energy=%g cycles=%d", r.TotalEnergy, r.Cycles)
	}
	if !strings.Contains(r.FormatTable(), "WRITE_READ") {
		t.Error("table must contain WRITE_READ")
	}
}

func TestPublicCustomBusFlow(t *testing.T) {
	k := ahbpower.NewKernel()
	bus, err := ahbpower.NewBus(k, ahbpower.BusConfig{
		NumMasters:  1,
		NumSlaves:   1,
		Regions:     []ahbpower.Region{{Start: 0, Size: 0x1000, Slave: 0}},
		ClockPeriod: 10 * ahbpower.Nanosecond,
		DataWidth:   32,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon := ahbpower.NewMonitor(bus)
	m, err := ahbpower.NewMaster(bus, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.KeepResults(true)
	sl, err := ahbpower.NewMemorySlave(bus, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Enqueue(ahbpower.Sequence{Ops: []ahbpower.Op{
		{Kind: ahbpower.OpWrite, Addr: 0x20, Data: []uint32{0x1234}},
		{Kind: ahbpower.OpRead, Addr: 0x20},
	}})
	if err := k.RunCycles(bus.Clk, 30); err != nil {
		t.Fatal(err)
	}
	if sl.Peek(0x20) != 0x1234 {
		t.Errorf("memory=%#x", sl.Peek(0x20))
	}
	if len(mon.Errors()) != 0 {
		t.Errorf("violations: %v", mon.Errors())
	}
	res := m.Results()
	if len(res) != 2 || res[1].Data != 0x1234 {
		t.Errorf("results: %+v", res)
	}
}

func TestPublicWorkloadGeneration(t *testing.T) {
	cfg := ahbpower.PaperWorkload(0, 5)
	seqs, err := ahbpower.GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 5 {
		t.Errorf("sequences=%d", len(seqs))
	}
}

func TestPublicTechDefaults(t *testing.T) {
	tech := ahbpower.DefaultTech()
	if tech.VDD != 1.8 || tech.CPD <= 0 || tech.CO <= 0 {
		t.Errorf("tech=%+v", tech)
	}
}

func TestPublicAPBFlow(t *testing.T) {
	k := ahbpower.NewKernel()
	bus, err := ahbpower.NewBus(k, ahbpower.BusConfig{
		NumMasters:  1,
		NumSlaves:   1,
		Regions:     []ahbpower.Region{{Start: 0, Size: 0x1000, Slave: 0}},
		ClockPeriod: 10 * ahbpower.Nanosecond,
		DataWidth:   32,
	})
	if err != nil {
		t.Fatal(err)
	}
	apbBus, err := ahbpower.NewAPBBus(k, ahbpower.APBConfig{
		NumSel:  1,
		Regions: []ahbpower.APBRegion{{Start: 0, Size: 0x100, Sel: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ahbpower.NewBridge(bus, 0, apbBus); err != nil {
		t.Fatal(err)
	}
	regs, err := ahbpower.NewRegisterBlock(apbBus, 0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	regs.AttachClock(bus.Clk)
	m, err := ahbpower.NewMaster(bus, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Enqueue(ahbpower.Sequence{Ops: []ahbpower.Op{
		{Kind: ahbpower.OpWrite, Addr: 0x8, Data: []uint32{0x55}},
	}})
	if err := k.RunCycles(bus.Clk, 30); err != nil {
		t.Fatal(err)
	}
	if regs.Peek(2) != 0x55 {
		t.Errorf("reg[2]=%#x", regs.Peek(2))
	}
}

func TestPublicASBFlow(t *testing.T) {
	k := ahbpower.NewKernel()
	bus, err := ahbpower.NewASBBus(k, ahbpower.ASBConfig{
		NumMasters:  1,
		NumSlaves:   1,
		Regions:     []ahbpower.ASBRegion{{Start: 0, Size: 0x1000, Slave: 0}},
		ClockPeriod: 10 * ahbpower.Nanosecond,
		DataWidth:   32,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ahbpower.NewASBMaster(bus, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.KeepResults(true)
	sl, err := ahbpower.NewASBMemorySlave(bus, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Enqueue(ahbpower.ASBSequence{Ops: []ahbpower.ASBOp{
		{Kind: ahbpower.ASBOpWrite, Addr: 0x10, Data: []uint32{0x99}},
		{Kind: ahbpower.ASBOpRead, Addr: 0x10},
	}})
	if err := k.RunCycles(bus.Clk, 30); err != nil {
		t.Fatal(err)
	}
	if sl.Peek(0x10) != 0x99 {
		t.Errorf("asb mem=%#x", sl.Peek(0x10))
	}
	res := m.Results()
	if len(res) != 2 || res[1].Data != 0x99 {
		t.Errorf("asb results=%+v", res)
	}
}

func TestPublicFifoSlave(t *testing.T) {
	k := ahbpower.NewKernel()
	bus, err := ahbpower.NewBus(k, ahbpower.BusConfig{
		NumMasters:  1,
		NumSlaves:   1,
		Regions:     []ahbpower.Region{{Start: 0, Size: 0x1000, Slave: 0}},
		ClockPeriod: 10 * ahbpower.Nanosecond,
		DataWidth:   32,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ahbpower.NewMaster(bus, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.KeepResults(true)
	f, err := ahbpower.NewFifoSlave(bus, 0, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Enqueue(ahbpower.Sequence{Ops: []ahbpower.Op{
		{Kind: ahbpower.OpWrite, Addr: 0, Data: []uint32{5}},
		{Kind: ahbpower.OpRead, Addr: 0},
	}})
	if err := k.RunCycles(bus.Clk, 30); err != nil {
		t.Fatal(err)
	}
	if f.Pushes != 1 || f.Pops != 1 {
		t.Errorf("fifo pushes=%d pops=%d", f.Pushes, f.Pops)
	}
	if m.Results()[1].Data != 5 {
		t.Errorf("read=%d", m.Results()[1].Data)
	}
}

func TestPublicModelRoundTrip(t *testing.T) {
	tech := ahbpower.DefaultTech()
	models, err := ahbpower.Characterize(ahbpower.CharacterizationConfig{
		NumMasters: 2, NumSlaves: 2, DataWidth: 32, Vectors: 500, Seed: 3, Tech: tech,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := ahbpower.SaveModels(&sb, models); err != nil {
		t.Fatal(err)
	}
	loaded, err := ahbpower.LoadModels(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Dec.Energy(1) != models.Dec.Energy(1) {
		t.Error("model round trip lost coefficients")
	}
	// And attach them to a real analysis.
	sys, err := ahbpower.NewSystem(ahbpower.PaperSystem())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadPaperWorkload(500); err != nil {
		t.Fatal(err)
	}
	// Attach refuses models characterized for a 2x2 bus on the paper's
	// 3x3 bus, so characterize ones for its shape.
	if _, err := ahbpower.Attach(sys, ahbpower.WithModels(loaded)); err == nil {
		t.Error("models for a 2x2 bus attached to the 3x3 paper bus")
	}
	fitted, err := ahbpower.Characterize(ahbpower.CharacterizationConfig{
		NumMasters: 3, NumSlaves: 3, DataWidth: 32, Vectors: 500, Seed: 4, Tech: tech,
	})
	if err != nil {
		t.Fatal(err)
	}
	an, err := ahbpower.Attach(sys, ahbpower.WithStyle(ahbpower.StyleGlobal), ahbpower.WithModels(fitted))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(500); err != nil {
		t.Fatal(err)
	}
	if an.Report().TotalEnergy <= 0 {
		t.Error("fitted-model analysis produced no energy")
	}
}
