package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// hashVersion tags the canonical encoding. Bump it whenever a field is
// added to the encoding or its meaning changes, so stale cache entries
// keyed by an older scheme can never be returned for a new scenario.
// v2: fault plans and per-scenario timeouts joined the encoding.
// v3: the system shape is encoded as its canonical topology (masters,
// slaves, explicit address regions, per-master workload hints) instead
// of the raw count-based fields, so a count-based scenario and its
// declarative topology twin hash to the same key.
// v4: the normalized accuracy class joined the encoding — transaction
// estimates are approximate by contract and must never answer (or be
// answered by) a cycle-accurate cache entry. "" and "cycle" stay one key.
const hashVersion = "ahbpower/engine.Scenario/v4"

// CanonicalKey returns a content-addressed key for the scenario: the
// hex SHA-256 of a canonical binary encoding of every field that can
// affect the simulation outcome. Because batches are deterministic —
// each scenario builds an isolated kernel and system, workloads are
// seeded PRNG streams and parallel sweeps reproduce serial ones byte
// for byte — two scenarios with the same key produce identical Results,
// which is what makes the key usable as a result-cache address.
//
// ok is false when the scenario is not canonicalizable: a Setup hook,
// caller-supplied Models or an attached Trace all inject state the
// encoding cannot see, so such scenarios must never be cached.
func (sc *Scenario) CanonicalKey() (key string, ok bool) {
	if sc.Setup != nil {
		return "", false
	}
	if !sc.SkipAnalyzer && (sc.Analyzer.Models != nil || sc.Analyzer.Trace != nil) {
		return "", false
	}
	h := sha256.New()
	e := hashEnc{h: h}
	e.str(hashVersion)
	e.str(sc.Name)
	// Normalized, so the "" and explicit-"cycle" spellings of the exact
	// class share one cache line; "transaction" separates. The backend
	// hint stays excluded: it never changes the computed result, the
	// accuracy class does.
	e.str(NormalizeAccuracy(sc.Accuracy))

	// The system shape is hashed in its canonical topology form — the
	// exact value NewSystemTopo builds — so the two API generations
	// (count-based System, declarative Topo) address the same cache line
	// whenever they describe the same system. Names are included: they
	// ride along in the Result echo, and cached responses must be
	// byte-identical to fresh ones.
	t := sc.Topology()
	e.str(t.Name)
	e.u64(t.ClockPeriodPS)
	e.i64(int64(t.DataWidth))
	e.str(t.Policy)
	e.u64(uint64(len(t.Masters)))
	for _, m := range t.Masters {
		e.str(m.Name)
		e.bool(m.Default)
		e.bool(m.Workload != nil)
		if m.Workload != nil {
			w := m.Workload
			e.i64(w.Seed)
			e.i64(int64(w.Sequences))
			e.i64(int64(w.PairsMin))
			e.i64(int64(w.PairsMax))
			e.i64(int64(w.IdleMin))
			e.i64(int64(w.IdleMax))
			e.u64(uint64(w.AddrBase))
			e.u64(uint64(w.AddrSize))
			e.u64(uint64(w.LocalityWindow))
			e.str(w.Pattern)
			e.i64(int64(w.BurstBeats))
		}
	}
	e.u64(uint64(len(t.Slaves)))
	for _, s := range t.Slaves {
		e.str(s.Name)
		e.i64(int64(s.Waits))
		e.u64(uint64(len(s.Regions)))
		for _, r := range s.Regions {
			e.u64(uint64(r.Start))
			e.u64(uint64(r.Size))
		}
	}

	e.bool(sc.SkipAnalyzer)
	if !sc.SkipAnalyzer {
		an := sc.Analyzer
		e.u64(uint64(an.Style))
		e.f64(an.Tech.VDD)
		e.f64(an.Tech.CPD)
		e.f64(an.Tech.CO)
		e.f64(0) // the retired trace-window slot, kept so v4 keys stay unchanged
		e.bool(an.RecordActivity)
		e.bool(an.DPM != nil)
		if an.DPM != nil {
			e.i64(int64(an.DPM.IdleThreshold))
			e.f64(an.DPM.WakeEnergy)
		}
	}

	e.u64(uint64(len(sc.Workloads)))
	for _, w := range sc.Workloads {
		e.i64(w.Seed)
		e.i64(int64(w.NumSequences))
		e.i64(int64(w.PairsMin))
		e.i64(int64(w.PairsMax))
		e.i64(int64(w.IdleMin))
		e.i64(int64(w.IdleMax))
		e.u64(uint64(w.AddrBase))
		e.u64(uint64(w.AddrSize))
		e.u64(uint64(w.LocalityWindow))
		e.u64(uint64(w.Pattern))
		e.i64(int64(w.BurstBeats))
	}
	e.u64(sc.Cycles)
	e.i64(int64(sc.Timeout))

	e.bool(sc.Faults != nil)
	if sc.Faults != nil {
		p := sc.Faults
		e.i64(p.Seed)
		e.i64(0) // the retired fail_first slot, kept so v4 keys stay unchanged
		e.u64(uint64(len(p.Rules)))
		for _, r := range p.Rules {
			e.u64(uint64(r.Kind))
			e.i64(int64(r.Slave))
			e.i64(int64(r.Master))
			e.f64(r.Prob)
			e.i64(int64(r.Count))
			e.i64(int64(r.Retries))
			e.i64(int64(r.Waits))
			e.i64(int64(r.Hold))
			e.u64(uint64(r.Mask))
		}
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// hashEnc writes fixed-width, tag-free values into a hash. Strings are
// length-prefixed so concatenations cannot collide.
type hashEnc struct {
	h   interface{ Write(p []byte) (int, error) }
	buf [8]byte
}

func (e *hashEnc) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:], v)
	e.h.Write(e.buf[:])
}

func (e *hashEnc) i64(v int64) { e.u64(uint64(v)) }

func (e *hashEnc) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *hashEnc) bool(v bool) {
	if v {
		e.u64(1)
	} else {
		e.u64(0)
	}
}

func (e *hashEnc) str(s string) {
	e.u64(uint64(len(s)))
	e.h.Write([]byte(s))
}
