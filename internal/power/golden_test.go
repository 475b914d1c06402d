package power

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// macromodelDigest evaluates every macromodel of m over a fixed argument
// domain and returns the SHA-256 of the results' IEEE-754 bit patterns,
// little-endian, in evaluation order:
//
//   - the decoder at input Hamming distances 0..130;
//   - each mux over a grid that reaches past 127 and below 0 in every
//     argument, followed by its ClockEnergy;
//   - the arbiter over the full (0..16)² × {handover} × {arbitrating}
//     domain of a 16-master bus, then negative and oversized distances.
func macromodelDigest(m *Models) string {
	h := sha256.New()
	var buf [8]byte
	put := func(e float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e))
		h.Write(buf[:])
	}
	for hd := 0; hd <= 130; hd++ {
		put(m.Dec.Energy(hd))
	}
	grid := []int{-3, -1, 0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 32, 33, 64, 72, 100, 126, 127, 128, 129, 200, 400}
	for _, mux := range []*MuxModel{m.M2S, m.S2M} {
		for _, in := range grid {
			for _, sel := range grid {
				for _, out := range grid {
					put(mux.Energy(in, sel, out))
				}
			}
		}
		put(mux.ClockEnergy())
	}
	flags := []bool{false, true}
	for r := 0; r <= 16; r++ {
		for g := 0; g <= 16; g++ {
			for _, ho := range flags {
				for _, act := range flags {
					put(m.Arb.Energy(r, g, ho, act))
				}
			}
		}
	}
	for _, r := range []int{-5, -1, 0, 17, 18, 40, 100, 1000} {
		for _, g := range []int{-5, -1, 0, 3, 17, 40, 1000} {
			for _, ho := range flags {
				for _, act := range flags {
					put(m.Arb.Energy(r, g, ho, act))
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMacromodelGolden pins every macromodel output bit for bit, for the
// paper-shape structural defaults and for one refit set (characterized
// decoder coefficients and rewritten mux and arbiter coefficients at a
// second technology point, written in place after a first evaluation,
// as internal/charact does). Table 1, Figs. 3-6, checkpoints and wire
// results are all sums of these values, so a change to how the models
// evaluate that moves any result by one ulp fails here first.
func TestMacromodelGolden(t *testing.T) {
	paper := func() *Models {
		m, err := DefaultModels(3, 3, 32, DefaultTech())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	refit := func() *Models {
		m, err := DefaultModels(4, 5, 16, Tech{VDD: 1.2, CPD: 210e-15, CO: 470e-15})
		if err != nil {
			t.Fatal(err)
		}
		macromodelDigest(m) // evaluate once before the in-place refit
		m.Dec.CHD = 123.456e-15
		m.Dec.CEvent = 78.9e-15
		m.M2S.CIn, m.M2S.CSel, m.M2S.COut, m.M2S.CClkCycle = 301e-15, 4.7e-12, 555e-15, 0.9e-12
		m.S2M.CIn, m.S2M.CSel, m.S2M.COut, m.S2M.CClkCycle = 287e-15, 3.1e-12, 612e-15, 0.7e-12
		m.Arb.CReq, m.Arb.CGrant, m.Arb.CHandover, m.Arb.CActive = 611e-15, 905e-15, 1.3e-12, 17.7e-12
		return m
	}
	for _, tc := range []struct {
		name   string
		models func() *Models
		want   string
	}{
		{"paper-defaults", paper, "2135eda5926f9c46edf762d90ac0a1b40b6635e0d16161523694c8baed6c21f3"},
		{"refit", refit, "7a2eb8586200b3a22abd5851de5c6652a4173493902ff36172b4f62b6a2fef00"},
	} {
		if got := macromodelDigest(tc.models()); got != tc.want {
			t.Errorf("%s: macromodel digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
