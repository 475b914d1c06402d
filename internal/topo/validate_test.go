package topo

import (
	"strings"
	"testing"
)

// validTopo returns an ERC-clean, warning-free base the rule tests
// mutate one aspect of at a time.
func validTopo() Topology {
	return Topology{
		Masters: []Master{{}, {}, {Default: true}},
		Slaves: []Slave{
			{Regions: []AddrRange{{Start: 0x0000, Size: 0x1000}}},
			{Regions: []AddrRange{{Start: 0x1000, Size: 0x1000}}},
		},
	}
}

func codes(errs []Error) []Code {
	out := make([]Code, len(errs))
	for i, e := range errs {
		out[i] = e.Code
	}
	return out
}

func hasErr(t *testing.T, tp Topology, want Code) Error {
	t.Helper()
	errs, _ := Validate(tp)
	for _, e := range errs {
		if e.Code == want {
			return e
		}
	}
	t.Fatalf("Validate: want error code %s, got %v", want, codes(errs))
	return Error{}
}

func hasWarn(t *testing.T, tp Topology, want Code) Warning {
	t.Helper()
	errs, warns := Validate(tp)
	if len(errs) > 0 {
		t.Fatalf("Validate: unexpected errors %v", codes(errs))
	}
	for _, w := range warns {
		if w.Code == want {
			return w
		}
	}
	t.Fatalf("Validate: want warning code %s, got %+v", want, warns)
	return Warning{}
}

func TestValidateCleanBase(t *testing.T) {
	errs, warns := Validate(validTopo())
	if len(errs) != 0 || len(warns) != 0 {
		t.Fatalf("base topology must be clean: errs=%v warns=%+v", codes(errs), warns)
	}
}

func TestRuleNoMaster(t *testing.T) {
	tp := validTopo()
	tp.Masters = nil
	hasErr(t, tp, ErrNoMaster)
	// A default-only system has no traffic source either.
	tp.Masters = []Master{{Default: true}}
	hasErr(t, tp, ErrNoMaster)
}

func TestRuleNoSlave(t *testing.T) {
	tp := validTopo()
	tp.Slaves = nil
	hasErr(t, tp, ErrNoSlave)
}

func TestRuleTooManyMasters(t *testing.T) {
	tp := validTopo()
	tp.Masters = make([]Master, MaxPorts+1)
	hasErr(t, tp, ErrTooManyMasters)
}

func TestRuleTooManySlaves(t *testing.T) {
	tp := validTopo()
	for i := 0; i <= MaxPorts; i++ {
		tp.Slaves = append(tp.Slaves, Slave{
			Regions: []AddrRange{{Start: uint32(0x10000 + i*0x400), Size: 0x400}},
		})
	}
	hasErr(t, tp, ErrTooManySlaves)
}

func TestRuleBadClock(t *testing.T) {
	tp := validTopo()
	tp.ClockPeriodPS = 1 // below the kernel's 2 ps minimum
	e := hasErr(t, tp, ErrBadClock)
	if e.Path != "clock_period_ps" {
		t.Errorf("path=%q, want clock_period_ps", e.Path)
	}
	tp.ClockPeriodPS = 2_000_000_000_000 // above one second
	hasErr(t, tp, ErrBadClock)
}

func TestRuleBadWidth(t *testing.T) {
	tp := validTopo()
	tp.DataWidth = 24
	hasErr(t, tp, ErrBadWidth)
}

func TestRuleBadPolicy(t *testing.T) {
	tp := validTopo()
	tp.Policy = "coinflip"
	hasErr(t, tp, ErrBadPolicy)
}

func TestRuleBadWaits(t *testing.T) {
	tp := validTopo()
	tp.Slaves[0].Waits = -1
	hasErr(t, tp, ErrBadWaits)
}

func TestRuleDefaultMasterConflict(t *testing.T) {
	tp := validTopo()
	tp.Masters = []Master{{}, {Default: true}, {Default: true}}
	hasErr(t, tp, ErrDefaultConflict)
}

func TestRuleDefaultMasterWorkload(t *testing.T) {
	tp := validTopo()
	tp.Masters[2].Workload = &Workload{Seed: 1, Sequences: 1, PairsMin: 1, PairsMax: 1}
	hasErr(t, tp, ErrDefaultWorkload)
}

func TestRulePartialWorkload(t *testing.T) {
	tp := validTopo()
	tp.Masters[0].Workload = &Workload{Seed: 1, Sequences: 1, PairsMin: 1, PairsMax: 1}
	hasErr(t, tp, ErrPartialWorkload)
}

func TestRuleBadWorkload(t *testing.T) {
	tp := validTopo()
	bad := &Workload{Seed: 1, Sequences: 0, PairsMin: 1, PairsMax: 1} // Sequences must be >= 1
	tp.Masters[0].Workload = bad
	tp.Masters[1].Workload = bad
	e := hasErr(t, tp, ErrBadWorkload)
	if !strings.Contains(e.Path, "masters[0].workload") {
		t.Errorf("path=%q, want masters[0].workload", e.Path)
	}
	// An unknown pattern is the wire-level variant of the same rule.
	tp = validTopo()
	pat := &Workload{Seed: 1, Sequences: 1, PairsMin: 1, PairsMax: 1, Pattern: "fractal"}
	tp.Masters[0].Workload = pat
	tp.Masters[1].Workload = pat
	hasErr(t, tp, ErrBadWorkload)
}

func TestRuleRegionEmpty(t *testing.T) {
	tp := validTopo()
	tp.Slaves[0].Regions = []AddrRange{{Start: 0, Size: 0}}
	hasErr(t, tp, ErrRegionEmpty)
}

func TestRuleRegionWrap(t *testing.T) {
	tp := validTopo()
	tp.Slaves[0].Regions = []AddrRange{{Start: ^uint32(0) - 1023, Size: 2048}}
	hasErr(t, tp, ErrRegionWrap)
}

func TestRuleRegion1KB(t *testing.T) {
	tp := validTopo()
	tp.Slaves[0].Regions = []AddrRange{{Start: 512, Size: 0x1000}} // misaligned start
	hasErr(t, tp, ErrRegion1KB)
	tp = validTopo()
	tp.Slaves[0].Regions = []AddrRange{{Start: 0, Size: 1536}} // non-multiple size
	e := hasErr(t, tp, ErrRegion1KB)
	if e.Ref == "" {
		t.Error("the 1 KB rule must carry its spec reference")
	}
}

func TestRuleAddrOverlap(t *testing.T) {
	tp := validTopo()
	tp.Slaves[1].Regions = []AddrRange{{Start: 0x0800, Size: 0x1000}} // overlaps slave 0
	e := hasErr(t, tp, ErrAddrOverlap)
	if !strings.Contains(e.Path, "regions") {
		t.Errorf("overlap path=%q, want a region path", e.Path)
	}
	// A region nested inside a larger one still flags later overlaps: the
	// frontier keeps the furthest-reaching region.
	tp = validTopo()
	tp.Slaves[0].Regions = []AddrRange{{Start: 0, Size: 0x4000}}
	tp.Slaves[1].Regions = []AddrRange{
		{Start: 0x0400, Size: 0x400}, // nested in slave 0
		{Start: 0x3C00, Size: 0x400}, // still inside slave 0's reach
	}
	errs, _ := Validate(tp)
	n := 0
	for _, err := range errs {
		if err.Code == ErrAddrOverlap {
			n++
		}
	}
	if n != 2 {
		t.Errorf("nested overlaps flagged %d times, want 2: %v", n, codes(errs))
	}
}

func TestRuleUnreachableSlave(t *testing.T) {
	tp := validTopo()
	tp.Slaves[1].Regions = nil
	hasErr(t, tp, ErrUnreachableSlave)
}

func TestWarnAddrGap(t *testing.T) {
	tp := validTopo()
	tp.Slaves[1].Regions = []AddrRange{{Start: 0x4000, Size: 0x1000}} // hole at [0x1000,0x4000)
	w := hasWarn(t, tp, WarnAddrGap)
	if !strings.Contains(w.Detail, "12288") {
		t.Errorf("gap size missing from detail: %q", w.Detail)
	}
}

func TestWarnNoDefaultMaster(t *testing.T) {
	tp := validTopo()
	tp.Masters = []Master{{}, {}}
	hasWarn(t, tp, WarnNoDefaultMaster)
}

func TestCheckFoldsErrors(t *testing.T) {
	if err := Check(validTopo()); err != nil {
		t.Fatalf("Check on valid topology: %v", err)
	}
	tp := validTopo()
	tp.Slaves = nil
	tp.Masters = nil
	err := Check(tp)
	ve, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("Check must return *ValidationError, got %T (%v)", err, err)
	}
	if len(ve.Errors) < 2 {
		t.Errorf("want both E_NO_MASTER and E_NO_SLAVE, got %v", codes(ve.Errors))
	}
	if ve.Error() == "" || !strings.Contains(ve.Error(), "topo:") {
		t.Errorf("Error()=%q", ve.Error())
	}
}

func TestValidateDeterministicOrder(t *testing.T) {
	tp := validTopo()
	tp.Slaves = nil
	tp.Masters = nil
	a, _ := Validate(tp)
	b, _ := Validate(tp)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("finding %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
