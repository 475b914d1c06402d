// Package topo is the declarative topology layer: a Topology value
// describes an AHB system shape explicitly — masters with priorities and
// optional per-master workload hints, slaves with per-slave wait states
// and explicit address regions, an arbitration policy, clock and data
// width — replacing the implicit "N equal slaves in equal contiguous
// regions" assumption of the count-based core.SystemConfig.
//
// Topology is also the wire form: the serving layer accepts it verbatim
// as the "topology" object of a scenario, and the count-based legacy
// form (core.SystemConfig) expands into it (SystemConfig.Topology), so
// both API generations build the same systems byte for byte.
//
// Validate is the ERC (electrical-rule-check-style) compliance pass that
// makes arbitrary user topologies safe to accept from untrusted traffic:
// it returns structured, typed errors and warnings (address-map overlap,
// 1 KB granularity violations, zero-master systems, default-master
// conflicts, unreachable slaves, clock/width contract violations) that
// the serving layer rejects at decode time, before admission.
package topo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/sim"
	"ahbpower/internal/workload"
)

// Defaults applied by Canonical: the paper's 100 MHz, 32-bit testbench
// parameters and its 4 KB per-slave regions.
const (
	DefaultClockPeriodPS = 10_000 // 100 MHz
	DefaultDataWidth     = 32
	DefaultRegionSize    = 0x1000 // 4 KB
)

// MaxPorts is the AHB limit on masters and on slaves (HMASTER is 4 bits;
// the split mask is 16 wide).
const MaxPorts = 16

// RegionAlign is the minimum address-map granularity: the AMBA 2.0 AHB
// spec allocates slaves in 1 KB units so that bursts (which must not
// cross a 1 KB boundary, §3.9) can never straddle two slaves.
const RegionAlign = 1024

// AddrRange is one contiguous address region, [Start, Start+Size).
type AddrRange struct {
	Start uint32 `json:"start"`
	Size  uint32 `json:"size"`
}

// End returns the exclusive upper bound of the range, in 64 bits so a
// region touching the top of the 32-bit space does not wrap.
func (r AddrRange) End() uint64 { return uint64(r.Start) + uint64(r.Size) }

// String formats the range as [start, end).
func (r AddrRange) String() string {
	return fmt.Sprintf("[0x%08x, 0x%08x)", r.Start, r.End())
}

// Workload is a per-master traffic hint: the wire form of
// workload.Config, carried inside the topology so one document can
// describe both the system shape and the traffic that exercises it.
type Workload struct {
	Seed           int64  `json:"seed"`
	Sequences      int    `json:"sequences"`
	PairsMin       int    `json:"pairs_min"`
	PairsMax       int    `json:"pairs_max"`
	IdleMin        int    `json:"idle_min,omitempty"`
	IdleMax        int    `json:"idle_max,omitempty"`
	AddrBase       uint32 `json:"addr_base,omitempty"`
	AddrSize       uint32 `json:"addr_size,omitempty"`
	LocalityWindow uint32 `json:"locality_window,omitempty"`
	Pattern        string `json:"pattern,omitempty"` // random|low-activity|counter
	BurstBeats     int    `json:"burst_beats,omitempty"`
}

// Config converts the hint into a workload configuration.
func (w *Workload) Config() (workload.Config, error) {
	pat, err := workload.ParsePattern(w.Pattern)
	if err != nil {
		return workload.Config{}, err
	}
	return workload.Config{
		Seed:         w.Seed,
		NumSequences: w.Sequences,
		PairsMin:     w.PairsMin, PairsMax: w.PairsMax,
		IdleMin: w.IdleMin, IdleMax: w.IdleMax,
		AddrBase: w.AddrBase, AddrSize: w.AddrSize,
		LocalityWindow: w.LocalityWindow,
		Pattern:        pat,
		BurstBeats:     w.BurstBeats,
	}, nil
}

// Master is one bus master port. Masters are listed in priority order:
// the port index is the arbitration priority (lowest index wins under
// the fixed and sticky policies), exactly as on the modeled bus.
type Master struct {
	// Name labels the master in validation paths and reports; empty names
	// canonicalize to "m<index>".
	Name string `json:"name,omitempty"`
	// Default marks the paper's "simple default master": a port that never
	// requests the bus and drives IDLE whenever granted. At most one
	// master may be the default, and it cannot carry a workload hint.
	Default bool `json:"default,omitempty"`
	// Workload optionally carries this master's traffic. Hints are
	// all-or-none across the active masters: mixing hinted and unhinted
	// masters is a validation error (E_PARTIAL_WORKLOAD).
	Workload *Workload `json:"workload,omitempty"`
}

// Slave is one bus slave with its wait-state count and the explicit
// address regions that decode to it.
type Slave struct {
	// Name labels the slave in validation paths; empty names canonicalize
	// to "s<index>".
	Name string `json:"name,omitempty"`
	// Waits is the number of wait states the slave inserts per transfer.
	Waits int `json:"waits,omitempty"`
	// Regions are the address ranges decoded to this slave. A slave with
	// no regions is unreachable (E_UNREACHABLE_SLAVE).
	Regions []AddrRange `json:"regions"`
}

// Topology is the declarative description of an AHB system. The zero
// value is invalid (no masters, no slaves); Canonical fills the clock,
// width, policy and naming defaults, and Validate checks the result
// against the ERC rule set.
type Topology struct {
	// Name labels the topology in reports; purely cosmetic.
	Name string `json:"name,omitempty"`
	// ClockPeriodPS is the bus clock period in picoseconds; 0 means the
	// paper's 10000 (100 MHz).
	ClockPeriodPS uint64 `json:"clock_period_ps,omitempty"`
	// DataWidth is the bus data width in bits (8, 16 or 32); 0 means 32.
	DataWidth int `json:"data_width,omitempty"`
	// Policy is the arbitration policy: "sticky" (default), "fixed" or
	// "rr".
	Policy string `json:"policy,omitempty"`
	// Masters in priority order (index = port = priority).
	Masters []Master `json:"masters"`
	// Slaves in port order.
	Slaves []Slave `json:"slaves"`
}

// Canonical returns the normalized deep copy every consumer (builder,
// validator, canonical hash) operates on: clock, width, policy, pattern
// and naming defaults applied, workload address windows defaulted to the
// topology's mapped span, and each slave's region list sorted by start
// address. Canonical is idempotent, and two topologies with the same
// canonical form build identical systems — which is what lets the
// engine's CanonicalKey hash the canonical form directly.
func (t Topology) Canonical() Topology {
	c := t
	if c.ClockPeriodPS == 0 {
		c.ClockPeriodPS = DefaultClockPeriodPS
	}
	if c.DataWidth == 0 {
		c.DataWidth = DefaultDataWidth
	}
	c.Policy = strings.ToLower(strings.TrimSpace(c.Policy))
	if c.Policy == "" {
		c.Policy = ahb.PolicySticky.String()
	}
	base, size := t.AddrSpan()
	c.Masters = make([]Master, len(t.Masters))
	for i, m := range t.Masters {
		if m.Name == "" {
			m.Name = fmt.Sprintf("m%d", i)
		}
		if m.Workload != nil {
			w := *m.Workload
			if w.AddrBase == 0 && w.AddrSize == 0 {
				w.AddrBase, w.AddrSize = base, size
			}
			w.Pattern = strings.ToLower(strings.TrimSpace(w.Pattern))
			if w.Pattern == "" {
				w.Pattern = workload.PatternRandom.String()
			}
			if w.BurstBeats == 0 {
				w.BurstBeats = 1
			}
			m.Workload = &w
		}
		c.Masters[i] = m
	}
	c.Slaves = make([]Slave, len(t.Slaves))
	for i, s := range t.Slaves {
		if s.Name == "" {
			s.Name = fmt.Sprintf("s%d", i)
		}
		s.Regions = append([]AddrRange(nil), s.Regions...)
		sort.SliceStable(s.Regions, func(a, b int) bool {
			return s.Regions[a].Start < s.Regions[b].Start
		})
		c.Slaves[i] = s
	}
	return c
}

// ClockPeriod returns the bus clock period as simulated time.
func (t *Topology) ClockPeriod() sim.Time {
	ps := t.ClockPeriodPS
	if ps == 0 {
		ps = DefaultClockPeriodPS
	}
	return sim.Time(ps) * sim.Picosecond
}

// ArbPolicy parses the topology's arbitration policy.
func (t *Topology) ArbPolicy() (ahb.ArbPolicy, error) {
	p := strings.ToLower(strings.TrimSpace(t.Policy))
	if p == "" {
		return ahb.PolicySticky, nil
	}
	return ahb.ParsePolicy(p)
}

// ActiveMasters counts the workload-driven (non-default) masters.
func (t *Topology) ActiveMasters() int {
	n := 0
	for _, m := range t.Masters {
		if !m.Default {
			n++
		}
	}
	return n
}

// HasDefaultMaster reports whether a master is marked as the default.
func (t *Topology) HasDefaultMaster() bool {
	for _, m := range t.Masters {
		if m.Default {
			return true
		}
	}
	return false
}

// DefaultMasterIndex returns the port granted when nobody requests: the
// first master marked Default, else the last master (matching the legacy
// count-based construction, where the bus parks on the last port).
func (t *Topology) DefaultMasterIndex() int {
	for i, m := range t.Masters {
		if m.Default {
			return i
		}
	}
	return len(t.Masters) - 1
}

// MaxWaits returns the maximum wait-state count across slaves.
func (t *Topology) MaxWaits() int {
	w := 0
	for _, s := range t.Slaves {
		if s.Waits > w {
			w = s.Waits
		}
	}
	return w
}

// AddrSpan returns the [base, base+size) window covering every mapped
// region, or (0, 0) for an empty address map. Workload hints without an
// explicit address window default to this span.
func (t *Topology) AddrSpan() (base, size uint32) {
	lo, hi := uint64(1)<<32, uint64(0)
	for _, s := range t.Slaves {
		for _, r := range s.Regions {
			if r.Size == 0 {
				continue
			}
			if uint64(r.Start) < lo {
				lo = uint64(r.Start)
			}
			if r.End() > hi {
				hi = r.End()
			}
		}
	}
	if hi <= lo {
		return 0, 0
	}
	span := hi - lo
	if span > uint64(^uint32(0)) {
		span = uint64(^uint32(0))
	}
	return uint32(lo), uint32(span)
}

// Regions flattens the per-slave address maps into the bus decoder's
// region list: slaves in port order, each slave's regions in canonical
// (start-sorted) order. For a count-canonicalized topology this
// reproduces the legacy "one region per slave at index*size" list
// exactly.
func (t *Topology) Regions() []ahb.Region {
	var out []ahb.Region
	for si, s := range t.Slaves {
		for _, r := range s.Regions {
			out = append(out, ahb.Region{Start: r.Start, Size: r.Size, Slave: si})
		}
	}
	return out
}

// Workloads returns the workload configurations carried by the active
// masters in port order, or nil when the topology carries no hints.
// Validation guarantees hints are all-or-none across active masters and
// individually well-formed, so on a validated topology the error is nil.
func (t *Topology) Workloads() ([]workload.Config, error) {
	var out []workload.Config
	for i, m := range t.Masters {
		if m.Default || m.Workload == nil {
			continue
		}
		cfg, err := m.Workload.Config()
		if err != nil {
			return nil, fmt.Errorf("topo: masters[%d] workload: %w", i, err)
		}
		out = append(out, cfg)
	}
	return out, nil
}

// Load parses a topology from JSON, rejecting unknown fields so typos in
// hand-written files fail loudly instead of silently meaning defaults.
func Load(data []byte) (*Topology, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var t Topology
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("topo: %w", err)
	}
	return &t, nil
}

// LoadFile reads and parses a topology JSON file.
func LoadFile(path string) (*Topology, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := Load(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
