package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"sort"

	"ahbpower/internal/engine"
)

// fingerprintsJSON pins, per workload, a digest of the default seed's
// reference results. The event, compiled, lane and transaction paths are
// cross-checked against each other in every run; the fingerprint also
// catches a change that shifts all of them alike. Only a change meant to
// alter results should update it, by hand, from the digest a mismatch
// prints.
//
//go:embed fingerprints.json
var fingerprintsJSON []byte

// checkFingerprint compares the workload's reference digest with the
// checked-in one.
func (r *run) checkFingerprint(got string) {
	want := map[string]string{}
	if err := json.Unmarshal(fingerprintsJSON, &want); err != nil {
		r.fail("fingerprints.json: %v", err)
		return
	}
	if want[r.workload] != got {
		r.fail("reference results of seed %d fingerprint %s, want %s", defaultSeed, got, want[r.workload])
	}
}

// fingerprintResults digests the deterministic content of results: per
// scenario its name, the exact bits of every energy, the beat count and
// the monitor counters.
func fingerprintResults(res []engine.Result) string {
	h := sha256.New()
	for i := range res {
		rs := &res[i]
		fmt.Fprintf(h, "%s|%x|%d|", rs.Scenario.Name, math.Float64bits(rs.Report.TotalEnergy), rs.Beats)
		for _, k := range sortedKeys(rs.Report.BlockEnergy) {
			fmt.Fprintf(h, "%s=%x,", k, math.Float64bits(rs.Report.BlockEnergy[k]))
		}
		for _, k := range sortedKeys(rs.Counts) {
			fmt.Fprintf(h, "%s=%d,", k, rs.Counts[k])
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// sameResult reports how two results of one scenario differ, comparing
// energies by their exact bits: every cycle-accurate path promises
// Float64bits-identical results.
func sameResult(a, b *engine.Result) error {
	ea, eb := a.Report.TotalEnergy, b.Report.TotalEnergy
	if math.Float64bits(ea) != math.Float64bits(eb) {
		return fmt.Errorf("%s: energy %v vs %v", a.Scenario.Name, ea, eb)
	}
	for k, v := range a.Report.BlockEnergy {
		if math.Float64bits(v) != math.Float64bits(b.Report.BlockEnergy[k]) {
			return fmt.Errorf("%s: block %s energy %v vs %v", a.Scenario.Name, k, v, b.Report.BlockEnergy[k])
		}
	}
	if a.Beats != b.Beats || !maps.Equal(a.Counts, b.Counts) {
		return fmt.Errorf("%s: beats %d vs %d, counts %v vs %v", a.Scenario.Name, a.Beats, b.Beats, a.Counts, b.Counts)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
