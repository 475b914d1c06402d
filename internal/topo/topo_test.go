package topo

import (
	"reflect"
	"testing"
)

func TestCanonicalIdempotent(t *testing.T) {
	tp := Topology{
		Name:   "x",
		Policy: " Sticky ",
		Masters: []Master{
			{Workload: &Workload{Seed: 1, Sequences: 2, PairsMin: 1, PairsMax: 2}},
			{Default: true},
		},
		Slaves: []Slave{
			{Regions: []AddrRange{{Start: 0x2000, Size: 0x1000}, {Start: 0x0000, Size: 0x1000}}},
		},
	}
	c1 := tp.Canonical()
	c2 := c1.Canonical()
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("Canonical not idempotent:\n%+v\nvs\n%+v", c1, c2)
	}
	if c1.Policy != "sticky" || c1.DataWidth != DefaultDataWidth || c1.ClockPeriodPS != DefaultClockPeriodPS {
		t.Errorf("defaults not applied: %+v", c1)
	}
	if c1.Masters[0].Name != "m0" || c1.Slaves[0].Name != "s0" {
		t.Errorf("names not canonicalized: %q %q", c1.Masters[0].Name, c1.Slaves[0].Name)
	}
	if c1.Slaves[0].Regions[0].Start != 0 {
		t.Errorf("regions not sorted by start: %v", c1.Slaves[0].Regions)
	}
	// Workload address window defaults to the mapped span; pattern and
	// burst get their defaults.
	w := c1.Masters[0].Workload
	if w.AddrBase != 0 || w.AddrSize != 0x3000 || w.Pattern != "random" || w.BurstBeats != 1 {
		t.Errorf("workload defaults: %+v", w)
	}
	// The input must not be mutated (Canonical deep-copies).
	if tp.Masters[0].Name != "" || tp.Slaves[0].Regions[0].Start != 0x2000 {
		t.Errorf("Canonical mutated its receiver: %+v", tp)
	}
}

func TestWorkloadsAllOrNone(t *testing.T) {
	tp := Topology{
		Masters: []Master{
			{Workload: &Workload{Seed: 7, Sequences: 3, PairsMin: 1, PairsMax: 4}},
			{Workload: &Workload{Seed: 8, Sequences: 3, PairsMin: 1, PairsMax: 4}},
		},
		Slaves: []Slave{{Regions: []AddrRange{{Start: 0, Size: 0x1000}}}},
	}.Canonical()
	cfgs, err := tp.Workloads()
	if err != nil {
		t.Fatalf("Workloads: %v", err)
	}
	if len(cfgs) != 2 || cfgs[0].Seed != 7 || cfgs[1].Seed != 8 {
		t.Fatalf("Workloads=%+v", cfgs)
	}
	if cfgs[0].AddrSize != 0x1000 {
		t.Errorf("hint window must default to the mapped span: %+v", cfgs[0])
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := Load([]byte(`{"masters":[{}],"slaves":[],"bogus":1}`)); err == nil {
		t.Fatal("unknown field must be rejected")
	}
	tp, err := Load([]byte(`{"masters":[{},{"default":true}],"slaves":[{"regions":[{"start":0,"size":4096}]}]}`))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(tp.Masters) != 2 || len(tp.Slaves) != 1 {
		t.Fatalf("Load parsed %+v", tp)
	}
}

func TestAddrSpanEmptyAndWrap(t *testing.T) {
	var tp Topology
	if base, size := tp.AddrSpan(); base != 0 || size != 0 {
		t.Errorf("empty AddrSpan=(%d,%d), want (0,0)", base, size)
	}
	full := Topology{Slaves: []Slave{{Regions: []AddrRange{{Start: 0, Size: ^uint32(0) &^ 1023}}}}}
	if _, size := full.AddrSpan(); size == 0 {
		t.Error("near-full span must not collapse to zero")
	}
}
