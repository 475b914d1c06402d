package charact

import (
	"testing"
)

func TestCharacterizeDefaults(t *testing.T) {
	// Zero DataWidth/Vectors/Tech take the documented defaults rather
	// than failing; only a degenerate bus shape is rejected.
	if _, err := Characterize(Config{NumSlaves: 1}); err == nil {
		t.Error("0 masters must be rejected")
	}
	if _, err := Characterize(Config{NumMasters: 1}); err == nil {
		t.Error("0 slaves must be rejected")
	}
	m, err := Characterize(Config{NumMasters: 1, NumSlaves: 1, Vectors: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Dec == nil || m.M2S == nil || m.Arb == nil || m.S2M == nil {
		t.Errorf("incomplete model set: %+v", m)
	}
}

func TestCharacterizeDeterministicInSeed(t *testing.T) {
	cfg := Config{NumMasters: 2, NumSlaves: 3, DataWidth: 16, Vectors: 250, Seed: 11, Tech: tech()}
	a, err := Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *a.Dec != *b.Dec || *a.M2S != *b.M2S {
		t.Error("same seed must reproduce identical coefficients")
	}
	cfg.Seed = 12
	c, err := Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *a.Dec == *c.Dec && *a.M2S == *c.M2S {
		t.Error("different seed produced identical fits — seed is ignored")
	}
}
