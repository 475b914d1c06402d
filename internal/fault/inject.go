package fault

import (
	"fmt"
	"math/rand"

	"ahbpower/internal/amba/ahb"
)

// PRNG derivation tags, one per interceptor family (see subSeed).
const (
	tagSlave  = 0x736c6176 // "slav"
	tagMaster = 0x6d617374 // "mast"
)

// Stats counts the faults an Injector actually fired. All counters are
// deterministic functions of (plan, scenario), so they participate in the
// chaos harness's replay-identity check. WaitStates sums Rule.Waits over
// the KindWaits firings: forced not-ready cycles, which lengthen a data
// phase only where they outlast the slave's own wait states.
type Stats struct {
	Errors     uint64 `json:"errors,omitempty"`
	Retries    uint64 `json:"retries,omitempty"`
	Splits     uint64 `json:"splits,omitempty"`
	WaitStates uint64 `json:"wait_states,omitempty"`
	AddrFlips  uint64 `json:"addr_flips,omitempty"`
	DataFlips  uint64 `json:"data_flips,omitempty"`
}

// Total returns the total number of injected fault events.
func (s *Stats) Total() uint64 {
	return s.Errors + s.Retries + s.Splits + s.WaitStates + s.AddrFlips + s.DataFlips
}

// Injector is a Plan compiled onto one built system. Create with Attach;
// read Stats after the run.
type Injector struct {
	bus   *ahb.Bus
	plan  *Plan
	stats Stats

	// The compiled parts are retained for snapshot capture/restore (see
	// snapshot.go); construction is deterministic, so index-aligned
	// restore onto an identically attached plan is sound.
	states  []*ruleState
	slaves  []*slaveInjector
	masters []*masterInjector
}

// countingRNG wraps a PRNG stream and counts the draws taken from it, so
// a snapshot can record the stream position and a restore can replay the
// same number of draws from a re-seeded source.
type countingRNG struct {
	*rand.Rand
	draws uint64
}

func (c *countingRNG) Float64() float64 {
	c.draws++
	return c.Rand.Float64()
}

func newCountingRNG(seed int64) *countingRNG {
	return &countingRNG{Rand: rand.New(rand.NewSource(seed))}
}

// Stats returns the injection counters accumulated so far.
func (in *Injector) Stats() Stats { return in.stats }

// ruleState is the runtime of one rule, shared across every interceptor
// the rule targets so Count budgets are plan-global.
type ruleState struct {
	r     Rule
	fired int
}

// tryFire consumes one firing opportunity: budget check first (no PRNG
// draw once exhausted, keeping streams stable), then the probability draw.
func (rs *ruleState) tryFire(rng *countingRNG) bool {
	if rs.r.Count > 0 && rs.fired >= rs.r.Count {
		return false
	}
	if p := rs.r.prob(); p < 1 && rng.Float64() >= p {
		return false
	}
	rs.fired++
	return true
}

// Attach compiles the plan onto a built system: one response interceptor
// per targeted slave and one drive hook per targeted active master. It
// must run after the system is fully built (masters and slaves attached)
// and before the simulation starts — interceptor processes registered
// after the slaves are what lets their signal writes deterministically
// override the slaves' in the same evaluation phase.
func Attach(bus *ahb.Bus, masters []*ahb.Master, plan *Plan) (*Injector, error) {
	if plan == nil {
		return nil, fmt.Errorf("fault: nil plan")
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	for i, r := range plan.Rules {
		if r.Kind.slaveSide() && r.Slave >= bus.Cfg.NumSlaves {
			return nil, fmt.Errorf("fault: rule %d (%s): slave %d out of range (have %d)", i, r.Kind, r.Slave, bus.Cfg.NumSlaves)
		}
		if !r.Kind.slaveSide() && r.Master >= len(masters) {
			return nil, fmt.Errorf("fault: rule %d (%s): master %d out of range (have %d)", i, r.Kind, r.Master, len(masters))
		}
	}
	in := &Injector{bus: bus, plan: plan}
	states := make([]*ruleState, len(plan.Rules))
	for i := range plan.Rules {
		states[i] = &ruleState{r: plan.Rules[i]}
	}
	in.states = states
	for s := 0; s < bus.Cfg.NumSlaves; s++ {
		var rules []*ruleState
		split := false
		for i, r := range plan.Rules {
			if r.Kind.slaveSide() && (r.Slave == -1 || r.Slave == s) {
				rules = append(rules, states[i])
				split = split || r.Kind == KindSplit
			}
		}
		if len(rules) == 0 {
			continue
		}
		si := &slaveInjector{
			in: in, bus: bus, idx: s, rules: rules,
			rng: newCountingRNG(subSeed(plan.Seed, tagSlave, uint64(s))),
		}
		in.slaves = append(in.slaves, si)
		if split {
			bus.WatchSplitResume(s)
		}
		bus.K.MethodNoInit(fmt.Sprintf("%s.fault.s%d", bus.Cfg.Name, s), si.tick, bus.Clk.Posedge())
	}
	for mIdx, m := range masters {
		var rules []*ruleState
		for i, r := range plan.Rules {
			if !r.Kind.slaveSide() && (r.Master == -1 || r.Master == mIdx) {
				rules = append(rules, states[i])
			}
		}
		if len(rules) == 0 {
			continue
		}
		mi := &masterInjector{
			in: in, idx: mIdx, rules: rules,
			rng: newCountingRNG(subSeed(plan.Seed, tagMaster, uint64(mIdx))),
		}
		in.masters = append(in.masters, mi)
		m.OnDrive(mi.hook)
	}
	return in, nil
}

// slaveInjector forces responses on one slave's output ports. Its process
// runs after the slave's own tick in the same evaluation phase (later
// registration id), so "last write wins" makes its ReadyOut/Resp writes
// authoritative. A forced ERROR/RETRY/SPLIT ends on a release cycle the
// injector drives itself (HREADY high, response held), which ends the
// slave's data phase too, whatever wait states it had left. A forced
// wait stretch only holds ReadyOut low: at its release the memory slave
// underneath drives ReadyOut again, high once its own wait states are
// counted, so the phase lasts the longer of the two.
type slaveInjector struct {
	in    *Injector
	bus   *ahb.Bus
	idx   int
	rng   *countingRNG
	rules []*ruleState
	// rt is the interceptor's runtime, as its snapshot serializes it.
	rt slaveRuntime
}

// slaveRuntime is the dynamic state a slave interceptor runs on.
type slaveRuntime struct {
	// Forced-response window: LowLeft more not-ready cycles, then one
	// release cycle driving Resp with HREADY high.
	Active  bool  `json:"active,omitempty"`
	LowLeft int   `json:"low_left,omitempty"`
	Resp    uint8 `json:"resp,omitempty"`

	// PendingRetries continues a KindRetry firing across the master's
	// re-attempts without fresh probability draws.
	PendingRetries int `json:"pending_retries,omitempty"`

	// Split-resume bookkeeping: after ResumeIn cycles, pulse SplitRes
	// with ResumeMask for one cycle.
	ResumeIn   int    `json:"resume_in,omitempty"`
	ResumeMask uint16 `json:"resume_mask,omitempty"`
	ClearRes   bool   `json:"clear_res,omitempty"`
}

func (si *slaveInjector) tick() {
	b := si.bus
	ports := &b.S[si.idx]

	// Split-resume countdown runs independently of the response window.
	if si.rt.ResumeIn > 0 {
		si.rt.ResumeIn--
		if si.rt.ResumeIn == 0 {
			ports.SplitRes.Write(si.rt.ResumeMask)
			si.rt.ResumeMask = 0
			si.rt.ClearRes = true
		}
	} else if si.rt.ClearRes {
		ports.SplitRes.Write(0)
		si.rt.ClearRes = false
	}

	if si.rt.Active {
		if si.rt.LowLeft > 0 {
			si.rt.LowLeft--
			ports.ReadyOut.Write(false)
			ports.Resp.Write(si.rt.Resp)
			return
		}
		// Release: the second cycle of a two-cycle response (resp held,
		// HREADY high). A wait stretch hands ReadyOut and Resp back to
		// the slave.
		if si.rt.Resp != ahb.RespOkay {
			ports.ReadyOut.Write(true)
			ports.Resp.Write(si.rt.Resp)
		}
		si.rt.Active = false
		return
	}

	// A new transfer is latched by the slave at this edge exactly when the
	// bus was ready and the slave is selected with an active HTRANS —
	// mirror that condition to decide whether there is anything to fault.
	if !b.HReady.Read() {
		return
	}
	t := b.HTrans.Read()
	if !b.Sel[si.idx].Read() || (t != ahb.TransNonseq && t != ahb.TransSeq) {
		return
	}
	if si.rt.PendingRetries > 0 {
		si.rt.PendingRetries--
		si.begin(ahb.RespRetry, 0)
		si.in.stats.Retries++
		return
	}
	m := b.HMaster.Read()
	for _, rs := range si.rules {
		if !rs.tryFire(si.rng) {
			continue
		}
		switch rs.r.Kind {
		case KindError:
			si.begin(ahb.RespError, 0)
			si.in.stats.Errors++
		case KindRetry:
			si.begin(ahb.RespRetry, 0)
			si.rt.PendingRetries = rs.retries() - 1
			si.in.stats.Retries++
		case KindSplit:
			si.begin(ahb.RespSplit, 0)
			b.MaskSplit(m)
			si.rt.ResumeMask |= 1 << uint(m)
			si.rt.ResumeIn = rs.hold()
			si.in.stats.Splits++
		case KindWaits:
			w := rs.waits()
			si.begin(ahb.RespOkay, w-1)
			si.in.stats.WaitStates += uint64(w)
		}
		return // at most one firing per latched transfer
	}
}

// begin opens a forced-response window: ready low with resp now, lowExtra
// more low cycles, then the release cycle.
func (si *slaveInjector) begin(resp uint8, lowExtra int) {
	ports := &si.bus.S[si.idx]
	ports.ReadyOut.Write(false)
	ports.Resp.Write(resp)
	si.rt.Resp = resp
	si.rt.LowLeft = lowExtra
	si.rt.Active = true
}

// retries returns the effective per-firing retry count of a KindRetry rule.
func (rs *ruleState) retries() int {
	if rs.r.Retries < 1 {
		return 1
	}
	return rs.r.Retries
}

// waits returns the effective wait-state count of a KindWaits rule.
func (rs *ruleState) waits() int {
	if rs.r.Waits < 1 {
		return 1
	}
	return rs.r.Waits
}

// hold returns the effective mask window of a KindSplit rule.
func (rs *ruleState) hold() int {
	if rs.r.Hold < 1 {
		return 4
	}
	return rs.r.Hold
}

// masterInjector corrupts beats at the master's drive hook: address and
// write-data XOR flips that perturb the HD terms of the decoder and mux
// macromodels.
type masterInjector struct {
	in    *Injector
	idx   int
	rng   *countingRNG
	rules []*ruleState
}

func (mi *masterInjector) hook(bd *ahb.BeatDrive) {
	for _, rs := range mi.rules {
		switch rs.r.Kind {
		case KindAddrFlip:
			if rs.tryFire(mi.rng) {
				bd.Addr ^= rs.r.mask()
				mi.in.stats.AddrFlips++
			}
		case KindDataFlip:
			if bd.Write && rs.tryFire(mi.rng) {
				bd.Data ^= rs.r.mask()
				mi.in.stats.DataFlips++
			}
		}
	}
}
