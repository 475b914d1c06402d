package core

import (
	"math"
	"reflect"
	"testing"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/sim"
	"ahbpower/internal/topo"
)

// runPaperPath builds the paper system through one of the two API
// generations, loads the paper workload and returns the total energy.
func runPaperPath(t *testing.T, build func() (*System, error), cycles uint64) (float64, *System) {
	t.Helper()
	sys, err := build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := sys.LoadPaperWorkload(cycles); err != nil {
		t.Fatalf("workload: %v", err)
	}
	an, err := Attach(sys, AnalyzerConfig{Style: StyleGlobal})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if err := sys.Run(cycles); err != nil {
		t.Fatalf("run: %v", err)
	}
	return an.Report().TotalEnergy, sys
}

// TestGoldenCountVsTopologyPaperSystem is the canonicalization contract
// of the API redesign: the count-based paper configuration and its
// explicit declarative-topology twin must build byte-identical
// simulations — the total energies agree to the last bit, not within a
// tolerance.
func TestGoldenCountVsTopologyPaperSystem(t *testing.T) {
	const cycles = 2500
	twin := topo.Topology{
		Masters: []topo.Master{{}, {}, {Default: true}},
		Slaves: []topo.Slave{
			{Regions: []topo.AddrRange{{Start: 0x0000, Size: 0x1000}}},
			{Regions: []topo.AddrRange{{Start: 0x1000, Size: 0x1000}}},
			{Regions: []topo.AddrRange{{Start: 0x2000, Size: 0x1000}}},
		},
	}
	eCounts, sysCounts := runPaperPath(t, func() (*System, error) { return NewSystem(PaperSystem()) }, cycles)
	eTopo, sysTopo := runPaperPath(t, func() (*System, error) { return NewSystemTopo(twin) }, cycles)
	if math.Float64bits(eCounts) != math.Float64bits(eTopo) {
		t.Fatalf("energies diverge: counts=%.17g J topo=%.17g J", eCounts, eTopo)
	}
	if eCounts <= 0 {
		t.Fatal("paper run produced no energy")
	}
	// The canonical topologies themselves must agree, since CanonicalKey
	// hashes them.
	ct, tt := PaperSystem().Topology(), twin.Canonical()
	if len(ct.Masters) != len(tt.Masters) || len(ct.Slaves) != len(tt.Slaves) ||
		ct.ClockPeriodPS != tt.ClockPeriodPS || ct.Policy != tt.Policy {
		t.Errorf("canonical forms differ:\ncounts: %+v\ntopo:   %+v", ct, tt)
	}
	// And the monitors must have seen identical traffic.
	cc, tc := sysCounts.Monitor.Counts(), sysTopo.Monitor.Counts()
	for k, v := range cc {
		if tc[k] != v {
			t.Errorf("monitor %q: counts=%d topo=%d", k, v, tc[k])
		}
	}
}

// TestNewSystemTopoRejectsWithValidationError pins the builder's error
// contract: invalid topologies come back as *topo.ValidationError with
// typed codes, the value the serving layer turns into structured 400s.
func TestNewSystemTopoRejectsWithValidationError(t *testing.T) {
	bad := topo.Topology{
		Masters: []topo.Master{{}},
		Slaves: []topo.Slave{
			{Regions: []topo.AddrRange{{Start: 0, Size: 0x1000}}},
			{Regions: []topo.AddrRange{{Start: 0x0800, Size: 0x1000}}},
		},
	}
	_, err := NewSystemTopo(bad)
	ve, ok := err.(*topo.ValidationError)
	if !ok {
		t.Fatalf("want *topo.ValidationError, got %T (%v)", err, err)
	}
	found := false
	for _, e := range ve.Errors {
		if e.Code == topo.ErrAddrOverlap {
			found = true
		}
	}
	if !found {
		t.Errorf("want %s in %+v", topo.ErrAddrOverlap, ve.Errors)
	}
}

// TestNewSystemTopoNonUniform builds a shape the count-based API cannot
// express and checks the decoder honors the explicit map.
func TestNewSystemTopoNonUniform(t *testing.T) {
	tp := topo.Topology{
		Masters: []topo.Master{{}, {Default: true}},
		Slaves: []topo.Slave{
			{Waits: 0, Regions: []topo.AddrRange{{Start: 0x0000, Size: 0x2000}}},
			{Waits: 3, Regions: []topo.AddrRange{{Start: 0x2000, Size: 0x400}, {Start: 0x2800, Size: 0x400}}},
		},
	}
	sys, err := NewSystemTopo(tp)
	if err != nil {
		t.Fatalf("NewSystemTopo: %v", err)
	}
	if len(sys.Slaves) != 2 || len(sys.Masters) != 1 || sys.Default == nil {
		t.Fatalf("built shape: %d slaves, %d masters, default=%v", len(sys.Slaves), len(sys.Masters), sys.Default != nil)
	}
	regions := sys.Bus.Cfg.Regions
	if len(regions) != 3 {
		t.Fatalf("decoder regions=%d, want 3 (one slave owns two)", len(regions))
	}
	if regions[2].Slave != 1 || regions[2].Start != 0x2800 {
		t.Errorf("region 2 = %+v, want slave 1 at 0x2800", regions[2])
	}
}

// TestSystemConfigTopology pins the count-based expansion: active
// masters first, the default master on the last port, and one
// DefaultRegionSize region per slave at slave*size.
func TestSystemConfigTopology(t *testing.T) {
	tp := PaperSystem().Topology()
	if len(tp.Masters) != 3 {
		t.Fatalf("masters=%d, want 3 (2 active + default)", len(tp.Masters))
	}
	if !tp.Masters[2].Default || tp.Masters[0].Default || tp.Masters[1].Default {
		t.Errorf("default master must be the last port: %+v", tp.Masters)
	}
	if tp.DefaultMasterIndex() != 2 {
		t.Errorf("DefaultMasterIndex=%d, want 2", tp.DefaultMasterIndex())
	}
	if len(tp.Slaves) != 3 {
		t.Fatalf("slaves=%d, want 3", len(tp.Slaves))
	}
	for i, s := range tp.Slaves {
		want := topo.AddrRange{Start: uint32(i) * topo.DefaultRegionSize, Size: topo.DefaultRegionSize}
		if len(s.Regions) != 1 || s.Regions[0] != want {
			t.Errorf("slave %d regions=%v, want [%v]", i, s.Regions, want)
		}
	}
	if tp.ClockPeriodPS != 10_000 {
		t.Errorf("ClockPeriodPS=%d, want 10000", tp.ClockPeriodPS)
	}
	if tp.ClockPeriod() != 10*sim.Nanosecond {
		t.Errorf("ClockPeriod()=%v, want 10ns", tp.ClockPeriod())
	}
	if base, size := tp.AddrSpan(); base != 0 || size != 3*topo.DefaultRegionSize {
		t.Errorf("AddrSpan=(%#x,%#x), want (0,%#x)", base, size, 3*topo.DefaultRegionSize)
	}
	if tp.ActiveMasters() != 2 || !tp.HasDefaultMaster() {
		t.Errorf("ActiveMasters=%d HasDefaultMaster=%v", tp.ActiveMasters(), tp.HasDefaultMaster())
	}
}

// TestSystemConfigTopologyRegions checks a non-default region size
// flattens into the bus address map.
func TestSystemConfigTopologyRegions(t *testing.T) {
	tp := SystemConfig{NumActiveMasters: 1, NumSlaves: 2, SlaveRegionSize: 0x800}.Topology()
	want := []ahb.Region{
		{Start: 0x0000, Size: 0x800, Slave: 0},
		{Start: 0x0800, Size: 0x800, Slave: 1},
	}
	if got := tp.Regions(); !reflect.DeepEqual(got, want) {
		t.Errorf("Regions=%v, want %v", got, want)
	}
}
