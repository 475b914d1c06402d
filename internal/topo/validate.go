package topo

import (
	"fmt"
	"sort"

	"ahbpower/internal/sim"
)

// Code is a typed ERC rule identifier. Error codes start with "E_",
// warning codes with "W_". Codes are stable API: tests, clients and the
// serving layer's 400 bodies match on them, never on message text.
type Code string

// ERC error codes. Each rejects a topology NewSystemTopo would either
// fail to build or build into a system that silently misbehaves.
const (
	// ErrNoMaster: no workload-driven master (a default-only or empty
	// master list cannot generate traffic).
	ErrNoMaster Code = "E_NO_MASTER"
	// ErrNoSlave: empty slave list.
	ErrNoSlave Code = "E_NO_SLAVE"
	// ErrTooManyMasters: more ports than the AHB HMASTER encoding allows.
	ErrTooManyMasters Code = "E_TOO_MANY_MASTERS"
	// ErrTooManySlaves: more slaves than the AHB select fabric allows.
	ErrTooManySlaves Code = "E_TOO_MANY_SLAVES"
	// ErrBadClock: clock period below the kernel's 2 ps minimum or above
	// one second.
	ErrBadClock Code = "E_BAD_CLOCK"
	// ErrBadWidth: data width other than 8, 16 or 32 bits.
	ErrBadWidth Code = "E_BAD_WIDTH"
	// ErrBadPolicy: unknown arbitration policy name.
	ErrBadPolicy Code = "E_BAD_POLICY"
	// ErrBadWaits: negative per-slave wait-state count.
	ErrBadWaits Code = "E_BAD_WAITS"
	// ErrDefaultConflict: more than one master marked as the default.
	ErrDefaultConflict Code = "E_DEFAULT_MASTER_CONFLICT"
	// ErrDefaultWorkload: a workload hint on the default master, which
	// drives IDLE forever and can never issue it.
	ErrDefaultWorkload Code = "E_DEFAULT_MASTER_WORKLOAD"
	// ErrPartialWorkload: some but not all active masters carry hints.
	ErrPartialWorkload Code = "E_PARTIAL_WORKLOAD"
	// ErrBadWorkload: a malformed per-master workload hint.
	ErrBadWorkload Code = "E_BAD_WORKLOAD"
	// ErrRegionEmpty: zero-size address region.
	ErrRegionEmpty Code = "E_REGION_EMPTY"
	// ErrRegionWrap: region extends past the top of the 32-bit space.
	ErrRegionWrap Code = "E_REGION_WRAP"
	// ErrRegion1KB: region start or size not a multiple of 1 KB.
	ErrRegion1KB Code = "E_REGION_1KB"
	// ErrAddrOverlap: two regions decode the same address.
	ErrAddrOverlap Code = "E_ADDR_OVERLAP"
	// ErrUnreachableSlave: slave with no address region.
	ErrUnreachableSlave Code = "E_UNREACHABLE_SLAVE"
)

// ERC warning codes: legal topologies with consequences the submitter
// probably wants to know about.
const (
	// WarnAddrGap: unmapped hole between mapped regions; accesses there
	// get the default slave's two-cycle ERROR response.
	WarnAddrGap Code = "W_ADDR_GAP"
	// WarnNoDefaultMaster: no master marked default; the bus parks on the
	// last listed master when idle, as in the legacy count-based API.
	WarnNoDefaultMaster Code = "W_NO_DEFAULT_MASTER"
)

// Spec-rule references attached to findings.
const (
	refPorts       = "AMBA 2.0 AHB §3.1 (16-port interconnect limit)"
	ref1KB         = "AMBA 2.0 AHB §3.9 (1 KB slave granularity; bursts must not cross a 1 KB boundary)"
	refDecode      = "AMBA 2.0 AHB §3.6 (central decoder: one slave per address)"
	refDefaultMstr = "AMBA 2.0 AHB §3.11.2 (default master drives IDLE transfers)"
	refDefaultSlv  = "AMBA 2.0 AHB §3.6.1 (default slave responds ERROR to undecoded non-IDLE transfers)"
	refWidth       = "AMBA 2.0 AHB §6.4 (supported data-bus widths)"
)

// Error is one ERC rule violation: a typed code, the component path it
// anchors to ("slaves[2].regions[0]"), a human-readable detail and the
// spec rule it enforces. Error is the wire form of the serving layer's
// structured 400 bodies.
type Error struct {
	Code   Code   `json:"code"`
	Path   string `json:"path"`
	Detail string `json:"detail"`
	Ref    string `json:"ref,omitempty"`
}

// Error implements the error interface.
func (e Error) Error() string {
	return fmt.Sprintf("%s at %s: %s", e.Code, e.Path, e.Detail)
}

// Warning is a non-fatal ERC finding with the same structure as Error.
type Warning struct {
	Code   Code   `json:"code"`
	Path   string `json:"path"`
	Detail string `json:"detail"`
	Ref    string `json:"ref,omitempty"`
}

// String formats the warning like Error.Error.
func (w Warning) String() string {
	return fmt.Sprintf("%s at %s: %s", w.Code, w.Path, w.Detail)
}

// ValidationError aggregates a failed ERC pass into one error value.
// core.NewSystemTopo returns it for invalid topologies, and the serving
// layer unwraps it (errors.As) into structured 400 bodies.
type ValidationError struct {
	Errors   []Error
	Warnings []Warning
}

// Error summarizes the findings; the first error carries the headline.
func (e *ValidationError) Error() string {
	if len(e.Errors) == 0 {
		return "topo: validation failed"
	}
	if len(e.Errors) == 1 {
		return fmt.Sprintf("topo: %v", e.Errors[0])
	}
	return fmt.Sprintf("topo: %d ERC errors (first: %v)", len(e.Errors), e.Errors[0])
}

// Validate runs the ERC compliance pass over the canonical form of the
// topology and returns every rule violation and advisory finding, in a
// deterministic order (masters, globals, slaves, address map). A
// topology with no errors is guaranteed to build: NewSystemTopo cannot
// fail on it (the fuzz harness enforces exactly this property).
func Validate(t Topology) ([]Error, []Warning) {
	t = t.Canonical()
	var errs []Error
	var warns []Warning

	// Masters: at least one active, at most one default, hints all-or-none.
	active, hinted := 0, 0
	defaults := []int{}
	for i := range t.Masters {
		m := &t.Masters[i]
		path := fmt.Sprintf("masters[%d]", i)
		if m.Default {
			defaults = append(defaults, i)
			if m.Workload != nil {
				errs = append(errs, Error{ErrDefaultWorkload, path,
					fmt.Sprintf("default master %q drives IDLE forever and cannot carry a workload hint", m.Name),
					refDefaultMstr})
			}
			continue
		}
		active++
		if m.Workload == nil {
			continue
		}
		hinted++
		cfg, err := m.Workload.Config()
		if err == nil {
			err = cfg.Validate()
		}
		if err != nil {
			errs = append(errs, Error{ErrBadWorkload, path + ".workload", err.Error(), ""})
		}
	}
	if active == 0 {
		errs = append(errs, Error{ErrNoMaster, "masters",
			"no workload-driven master: a bus with no active masters generates no traffic", ""})
	}
	if len(defaults) > 1 {
		errs = append(errs, Error{ErrDefaultConflict, fmt.Sprintf("masters[%d]", defaults[1]),
			fmt.Sprintf("masters %v are all marked default; at most one port may be the default master", defaults),
			refDefaultMstr})
	}
	if len(defaults) == 0 && len(t.Masters) > 0 {
		warns = append(warns, Warning{WarnNoDefaultMaster, "masters",
			fmt.Sprintf("no default master: the bus parks on the last master %q when nobody requests", t.Masters[len(t.Masters)-1].Name),
			refDefaultMstr})
	}
	if hinted > 0 && hinted < active {
		errs = append(errs, Error{ErrPartialWorkload, "masters",
			fmt.Sprintf("%d of %d active masters carry workload hints; hints are all-or-none", hinted, active), ""})
	}
	if len(t.Masters) > MaxPorts {
		errs = append(errs, Error{ErrTooManyMasters, "masters",
			fmt.Sprintf("%d master ports, limit %d", len(t.Masters), MaxPorts), refPorts})
	}

	// Globals: clock, width, policy.
	period := t.ClockPeriod()
	switch {
	case period < 2*sim.Picosecond:
		errs = append(errs, Error{ErrBadClock, "clock_period_ps",
			fmt.Sprintf("period %d ps is below the kernel's 2 ps minimum", t.ClockPeriodPS), ""})
	case period > sim.Second:
		errs = append(errs, Error{ErrBadClock, "clock_period_ps",
			fmt.Sprintf("period %d ps exceeds one second", t.ClockPeriodPS), ""})
	}
	switch t.DataWidth {
	case 8, 16, 32:
	default:
		errs = append(errs, Error{ErrBadWidth, "data_width",
			fmt.Sprintf("data width %d, want 8, 16 or 32", t.DataWidth), refWidth})
	}
	if _, err := t.ArbPolicy(); err != nil {
		errs = append(errs, Error{ErrBadPolicy, "policy",
			fmt.Sprintf("unknown arbitration policy %q (want sticky, fixed or rr)", t.Policy), ""})
	}

	// Slaves and the address map.
	if len(t.Slaves) == 0 {
		errs = append(errs, Error{ErrNoSlave, "slaves", "no slaves: every transfer would hit the default slave's ERROR response", ""})
	}
	if len(t.Slaves) > MaxPorts {
		errs = append(errs, Error{ErrTooManySlaves, "slaves",
			fmt.Sprintf("%d slaves, limit %d", len(t.Slaves), MaxPorts), refPorts})
	}
	type tagged struct {
		r    AddrRange
		path string
		name string
	}
	var mapped []tagged
	for si := range t.Slaves {
		s := &t.Slaves[si]
		spath := fmt.Sprintf("slaves[%d]", si)
		if s.Waits < 0 {
			errs = append(errs, Error{ErrBadWaits, spath,
				fmt.Sprintf("slave %q has %d wait states, want >= 0", s.Name, s.Waits), ""})
		}
		if len(s.Regions) == 0 {
			errs = append(errs, Error{ErrUnreachableSlave, spath,
				fmt.Sprintf("slave %q has no address region and can never be selected", s.Name), refDecode})
			continue
		}
		for ri, r := range s.Regions {
			rpath := fmt.Sprintf("%s.regions[%d]", spath, ri)
			if r.Size == 0 {
				errs = append(errs, Error{ErrRegionEmpty, rpath,
					fmt.Sprintf("region %s of slave %q is empty", r, s.Name), ""})
				continue
			}
			if r.End() > 1<<32 {
				errs = append(errs, Error{ErrRegionWrap, rpath,
					fmt.Sprintf("region %s of slave %q extends past the 32-bit address space", r, s.Name), ""})
				continue
			}
			if r.Start%RegionAlign != 0 || r.Size%RegionAlign != 0 {
				errs = append(errs, Error{ErrRegion1KB, rpath,
					fmt.Sprintf("region %s of slave %q is not 1 KB aligned (start and size must be multiples of %d)", r, s.Name, RegionAlign),
					ref1KB})
			}
			mapped = append(mapped, tagged{r, rpath, s.Name})
		}
	}

	// Overlaps and interior gaps over the well-formed regions, sorted by
	// start (ties by declaration order, which keeps findings deterministic).
	sort.SliceStable(mapped, func(a, b int) bool { return mapped[a].r.Start < mapped[b].r.Start })
	for i := 1; i < len(mapped); i++ {
		prev, cur := mapped[i-1], mapped[i]
		if uint64(cur.r.Start) < prev.r.End() {
			errs = append(errs, Error{ErrAddrOverlap, cur.path,
				fmt.Sprintf("region %s of slave %q overlaps region %s of slave %q (%s)",
					cur.r, cur.name, prev.r, prev.name, prev.path),
				refDecode})
			// Keep whichever region reaches further as the frontier, so a
			// region nested inside a larger one still flags its successor.
			if prev.r.End() > cur.r.End() {
				mapped[i] = prev
			}
			continue
		}
		if gap := uint64(cur.r.Start) - prev.r.End(); gap > 0 {
			warns = append(warns, Warning{WarnAddrGap, cur.path,
				fmt.Sprintf("unmapped hole of %d bytes between %s (%s) and %s (%s): accesses there get the default slave's ERROR response",
					gap, prev.r, prev.name, cur.r, cur.name),
				refDefaultSlv})
		}
	}
	return errs, warns
}

// Check validates a topology and folds any errors into a single
// *ValidationError (nil when the topology is compliant). Warnings alone
// never fail the check; they ride along on the returned error when
// errors are present, and are discarded otherwise — call Validate
// directly to surface them.
func Check(t Topology) error {
	errs, warns := Validate(t)
	if len(errs) == 0 {
		return nil
	}
	return &ValidationError{Errors: errs, Warnings: warns}
}
