// Package fault is the deterministic protocol-fault-injection layer: a
// declarative, seed-reproducible Plan is compiled onto a built AHB system
// (Attach) and perturbs it at the protocol level — forced ERROR/RETRY/SPLIT
// responses, forced wait stretches, and address/data bit-flips. The flips
// directly disturb the Hamming-distance terms of the paper's E_DEC/E_MUX
// macromodels, so injected faults produce measurable, assertable energy
// deltas while every stream-order conservation invariant must keep holding.
//
// Determinism is the load-bearing property: every interceptor draws from
// its own PRNG derived from Plan.Seed, and the simulation kernel executes
// processes in a fixed registration order, so two runs of the same plan on
// the same scenario are byte-identical — which is what lets fault plans
// participate in engine.Scenario.CanonicalKey and lets the chaos harness
// (tools/chaos) assert replay identity.
package fault

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
)

// Kind enumerates the injectable fault kinds.
type Kind uint8

// Fault kinds. The first four act on the slave side (response forcing),
// the last two on the master side (bus-value corruption).
const (
	// KindError forces a two-cycle ERROR response on a latched transfer.
	KindError Kind = iota
	// KindRetry forces two-cycle RETRY responses; Rule.Retries sets how
	// many consecutive re-attempts are retried per firing.
	KindRetry
	// KindSplit forces a two-cycle SPLIT response, masks the master from
	// arbitration, and resumes it after Rule.Hold cycles.
	KindSplit
	// KindWaits holds a data phase not-ready for Rule.Waits cycles. The
	// stretch overlaps the slave's own wait states and the phase lasts
	// the longer of the two, so the waits are extra only on a zero-wait
	// slave.
	KindWaits
	// KindAddrFlip XORs Rule.Mask into the address of a driven beat.
	KindAddrFlip
	// KindDataFlip XORs Rule.Mask into the write data of a driven beat.
	KindDataFlip
)

var kindNames = [...]string{"error", "retry", "split", "waits", "addr-flip", "data-flip"}

// String returns the wire name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind maps a wire name to its Kind.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == strings.ToLower(strings.TrimSpace(s)) {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q (want error|retry|split|waits|addr-flip|data-flip)", s)
}

// slaveSide reports whether the kind is injected at a slave's response
// ports (as opposed to a master's address/data drive).
func (k Kind) slaveSide() bool { return k <= KindWaits }

// MarshalJSON encodes the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) {
	if int(k) >= len(kindNames) {
		return nil, fmt.Errorf("fault: cannot marshal %s", k)
	}
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a wire name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// Rule is one fault source. Targets default to "any" (-1): a slave-side
// rule with Slave -1 fires on every slave, a master-side rule with Master
// -1 on every active master.
type Rule struct {
	Kind Kind `json:"kind"`
	// Slave restricts slave-side kinds to one slave index; -1 (or an
	// omitted JSON field) means any slave. Ignored by flip kinds.
	Slave int `json:"slave"`
	// Master restricts flip kinds to one active-master index; -1 (or an
	// omitted JSON field) means any. Slave-side kinds fire on whichever
	// master owns the faulted transfer, regardless of this field.
	Master int `json:"master"`
	// Prob is the per-opportunity firing probability in (0,1]; 0 means 1
	// (fire at every opportunity, budget permitting).
	Prob float64 `json:"prob,omitempty"`
	// Count bounds the total firings of this rule; 0 means unlimited,
	// which a retry or split rule may only combine with Prob < 1.
	Count int `json:"count,omitempty"`
	// Retries is how many consecutive RETRY responses one KindRetry firing
	// forces onto the re-attempted transfer (default 1).
	Retries int `json:"retries,omitempty"`
	// Waits is the length of the not-ready stretch per KindWaits firing
	// (default 1); it overlaps the slave's own wait states.
	Waits int `json:"waits,omitempty"`
	// Hold is the number of cycles a KindSplit firing keeps the master
	// masked before pulsing the split-resume line (default 4).
	Hold int `json:"hold,omitempty"`
	// Mask is the XOR mask of flip kinds; 0 means bit 4 for addresses
	// (stays word-aligned) and bit 0 for data.
	Mask uint32 `json:"mask,omitempty"`
}

// ruleAlias gives Rule's UnmarshalJSON a layer where absent targets are
// distinguishable from explicit zeros.
type ruleAlias struct {
	Kind    Kind    `json:"kind"`
	Slave   *int    `json:"slave"`
	Master  *int    `json:"master"`
	Prob    float64 `json:"prob"`
	Count   int     `json:"count"`
	Retries int     `json:"retries"`
	Waits   int     `json:"waits"`
	Hold    int     `json:"hold"`
	Mask    uint32  `json:"mask"`
}

// UnmarshalJSON decodes a rule, defaulting omitted Slave/Master to -1
// ("any") — an explicit 0 still targets index 0.
func (r *Rule) UnmarshalJSON(b []byte) error {
	var a ruleAlias
	if err := json.Unmarshal(b, &a); err != nil {
		return err
	}
	*r = Rule{Kind: a.Kind, Slave: -1, Master: -1, Prob: a.Prob, Count: a.Count,
		Retries: a.Retries, Waits: a.Waits, Hold: a.Hold, Mask: a.Mask}
	if a.Slave != nil {
		r.Slave = *a.Slave
	}
	if a.Master != nil {
		r.Master = *a.Master
	}
	return nil
}

// validate checks one rule against a plan-independent schema.
func (r *Rule) validate(i int) error {
	if int(r.Kind) >= len(kindNames) {
		return fmt.Errorf("fault: rule %d: unknown kind %d", i, r.Kind)
	}
	if r.Prob < 0 || r.Prob > 1 {
		return fmt.Errorf("fault: rule %d (%s): prob %g outside [0,1]", i, r.Kind, r.Prob)
	}
	if r.Count < 0 || r.Retries < 0 || r.Waits < 0 || r.Hold < 0 {
		return fmt.Errorf("fault: rule %d (%s): negative budget/parameter", i, r.Kind)
	}
	if r.Slave < -1 || r.Master < -1 {
		return fmt.Errorf("fault: rule %d (%s): target below -1", i, r.Kind)
	}
	if (r.Kind == KindAddrFlip || r.Kind == KindDataFlip) && r.Slave > -1 {
		return fmt.Errorf("fault: rule %d (%s): flip rules target masters, not slaves", i, r.Kind)
	}
	// A re-attempted transfer is a new opportunity: a retry or split that
	// always fires and never runs out stalls the first transfer it hits
	// for good, and the bus with it.
	if (r.Kind == KindRetry || r.Kind == KindSplit) && r.prob() == 1 && r.Count == 0 {
		return fmt.Errorf("fault: rule %d (%s): fires on every re-attempt, so no transfer it hits can complete; set a count or prob < 1", i, r.Kind)
	}
	return nil
}

// prob returns the effective firing probability (0 → always).
func (r *Rule) prob() float64 {
	if r.Prob == 0 {
		return 1
	}
	return r.Prob
}

// mask returns the effective XOR mask of a flip rule.
func (r *Rule) mask() uint32 {
	if r.Mask != 0 {
		return r.Mask
	}
	if r.Kind == KindAddrFlip {
		return 1 << 4 // word-aligned single-bit address disturbance
	}
	return 1
}

// Plan is a declarative, seed-reproducible fault-injection plan.
type Plan struct {
	// Seed drives every injection decision; identical seeds replay
	// byte-identically on the same scenario.
	Seed int64 `json:"seed"`
	// Rules are the fault sources; an empty list is a no-op plan.
	Rules []Rule `json:"rules,omitempty"`
}

// Active reports whether the plan injects any protocol-level faults.
func (p *Plan) Active() bool { return p != nil && len(p.Rules) > 0 }

// Validate checks the plan's schema. Target indices are range-checked at
// Attach time against the actual system shape.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i := range p.Rules {
		if err := p.Rules[i].validate(i); err != nil {
			return err
		}
	}
	return nil
}

// Parse decodes and validates a JSON plan. Unknown fields are refused,
// as on the wire: a misspelt key must not silently become a no-op plan.
func Parse(b []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("fault: parsing plan: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("fault: parsing plan: data after the plan object")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadFile reads and parses a JSON plan file.
func LoadFile(path string) (*Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(b)
}

// RandomPlan derives a randomized but fully seed-determined plan: the same
// seed always yields the same rules. The chaos harness and soak tests use
// it to cover the fault space without hand-writing plans.
func RandomPlan(seed int64) *Plan {
	rng := rand.New(rand.NewSource(subSeed(seed, 0x706c616e, 0))) // "plan"
	p := &Plan{Seed: seed}
	masks := []uint32{1, 1 << 3, 1 << 4, 1 << 9, 0x11, 0x80000001}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		r := Rule{
			Kind:   Kind(rng.Intn(len(kindNames))),
			Slave:  -1,
			Master: -1,
			Prob:   0.05 + 0.4*rng.Float64(),
			Count:  rng.Intn(12), // 0 = unlimited
		}
		switch r.Kind {
		case KindRetry:
			r.Retries = 1 + rng.Intn(2)
		case KindWaits:
			r.Waits = 1 + rng.Intn(3)
		case KindSplit:
			r.Hold = 2 + rng.Intn(6)
		case KindAddrFlip, KindDataFlip:
			r.Mask = masks[rng.Intn(len(masks))]
		}
		p.Rules = append(p.Rules, r)
	}
	return p
}

// subSeed derives an independent PRNG seed from a plan seed and an
// interceptor identity, splitmix64-style, so adding one interceptor never
// shifts another's random stream.
func subSeed(seed int64, tag, idx uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(tag*1000003+idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
