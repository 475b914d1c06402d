package power

import (
	"math"
	"testing"
	"testing/quick"
)

func testTech() Tech { return Tech{VDD: 1.8, CPD: 20e-15, CO: 50e-15} }

func TestDecoderModelMatchesPaperFormula(t *testing.T) {
	tech := testTech()
	m, err := NewDecoderModel(3, tech) // the paper's testbench: 3 slaves
	if err != nil {
		t.Fatal(err)
	}
	if m.NI != 2 {
		t.Fatalf("NI=%d, want 2 for n_O=3", m.NI)
	}
	// E = VDD²/4 (nI·nO·CPD·HD + 2·1·CO)
	for hd := 1; hd <= 2; hd++ {
		want := tech.VDD * tech.VDD / 4 * (2*3*tech.CPD*float64(hd) + 2*tech.CO)
		if got := m.Energy(hd); math.Abs(got-want) > 1e-24 {
			t.Errorf("Energy(%d)=%g, want %g", hd, got, want)
		}
	}
}

func TestDecoderModelZeroHD(t *testing.T) {
	m, err := NewDecoderModel(4, testTech())
	if err != nil {
		t.Fatal(err)
	}
	if m.Energy(0) != 0 {
		t.Error("no input change must cost no energy")
	}
	if m.Energy(-1) != 0 {
		t.Error("negative HD must cost no energy")
	}
}

func TestDecoderModelMonotoneInHD(t *testing.T) {
	m, err := NewDecoderModel(8, testTech())
	if err != nil {
		t.Fatal(err)
	}
	f := func(hd uint8) bool {
		h := int(hd%7) + 1
		return m.Energy(h+1) > m.Energy(h)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecoderModelScalesWithSlaves(t *testing.T) {
	tech := testTech()
	small, _ := NewDecoderModel(2, tech)
	big, _ := NewDecoderModel(16, tech)
	if big.Energy(1) <= small.Energy(1) {
		t.Error("a wider decoder must cost more per transition")
	}
}

func TestDecoderModelRejectsBadSize(t *testing.T) {
	if _, err := NewDecoderModel(1, testTech()); err == nil {
		t.Error("nO=1 must fail")
	}
}

func TestMuxModelLinearity(t *testing.T) {
	m, err := NewMuxModel(32, 3, testTech())
	if err != nil {
		t.Fatal(err)
	}
	e000 := m.Energy(0, 0, 0)
	if e000 != 0 {
		t.Errorf("zero activity energy=%g, want 0", e000)
	}
	// Linearity in each term.
	if math.Abs(m.Energy(4, 0, 0)-2*m.Energy(2, 0, 0)) > 1e-24 {
		t.Error("not linear in HD_IN")
	}
	if math.Abs(m.Energy(0, 4, 0)-2*m.Energy(0, 2, 0)) > 1e-24 {
		t.Error("not linear in HD_SEL")
	}
	if math.Abs(m.Energy(0, 0, 4)-2*m.Energy(0, 0, 2)) > 1e-24 {
		t.Error("not linear in HD_OUT")
	}
	// Additivity.
	sum := m.Energy(3, 0, 0) + m.Energy(0, 2, 0) + m.Energy(0, 0, 5)
	if math.Abs(m.Energy(3, 2, 5)-sum) > 1e-24 {
		t.Error("terms must be additive")
	}
}

func TestMuxModelSelectMoreExpensiveThanData(t *testing.T) {
	// Re-steering the mux touches the whole datapath; a single select-bit
	// toggle must cost more than a single data-bit toggle.
	m, err := NewMuxModel(32, 3, testTech())
	if err != nil {
		t.Fatal(err)
	}
	if m.Energy(0, 1, 0) <= m.Energy(1, 0, 0) {
		t.Error("select toggles must dominate data toggles")
	}
}

func TestMuxModelWidthScaling(t *testing.T) {
	tech := testTech()
	narrow, _ := NewMuxModel(8, 4, tech)
	wide, _ := NewMuxModel(64, 4, tech)
	if wide.Energy(0, 1, 0) <= narrow.Energy(0, 1, 0) {
		t.Error("select cost must grow with datapath width")
	}
}

func TestMuxModelRejectsBadSizes(t *testing.T) {
	if _, err := NewMuxModel(0, 2, testTech()); err == nil {
		t.Error("w=0 must fail")
	}
	if _, err := NewMuxModel(8, 1, testTech()); err == nil {
		t.Error("n=1 must fail")
	}
}

func TestArbiterModelHandoverPremium(t *testing.T) {
	m, err := NewArbiterModel(3, testTech())
	if err != nil {
		t.Fatal(err)
	}
	if m.Energy(1, 2, true, false) <= m.Energy(1, 2, false, false) {
		t.Error("handover must add energy")
	}
	if m.Energy(0, 0, false, false) != 0 {
		t.Error("idle arbiter with no toggles must cost nothing")
	}
}

func TestArbiterModelActiveArbitrationCost(t *testing.T) {
	m, err := NewArbiterModel(3, testTech())
	if err != nil {
		t.Fatal(err)
	}
	quiet := m.Energy(0, 0, false, false)
	active := m.Energy(0, 0, false, true)
	if active <= quiet {
		t.Error("active arbitration must cost energy")
	}
	// The active-arbitration cost dominates line toggles: it is what puts
	// IDLE_HO instructions in the paper's 14.7 pJ band.
	if active <= m.Energy(2, 2, false, false) {
		t.Error("active-arbitration cost must dominate a couple of line toggles")
	}
}

func TestArbiterModelScalesWithMasters(t *testing.T) {
	tech := testTech()
	small, _ := NewArbiterModel(2, tech)
	big, _ := NewArbiterModel(16, tech)
	if big.Energy(1, 0, false, false) <= small.Energy(1, 0, false, false) {
		t.Error("request cost must grow with master count")
	}
	if big.Energy(0, 0, true, false) <= small.Energy(0, 0, true, false) {
		t.Error("handover cost must grow with master count")
	}
	if big.Energy(0, 0, false, true) <= small.Energy(0, 0, false, true) {
		t.Error("active-arbitration cost must grow with master count")
	}
}

func TestArbiterModelRejectsBadSize(t *testing.T) {
	if _, err := NewArbiterModel(0, testTech()); err == nil {
		t.Error("n=0 must fail")
	}
}

func TestDefaultTechCalibration(t *testing.T) {
	tech := DefaultTech()
	if tech.VDD != 1.8 {
		t.Errorf("VDD=%v, want 1.8", tech.VDD)
	}
	if tech.CPD <= 0 || tech.CO <= 0 {
		t.Error("capacitances must be positive")
	}
	if got := tech.EnergyPerCap(1e-12); math.Abs(got-0.81e-12) > 1e-18 {
		t.Errorf("EnergyPerCap(1pF)=%g, want 0.81pJ", got)
	}
}

func TestDecoderModelFittedOverride(t *testing.T) {
	tech := testTech()
	m, err := NewDecoderModel(4, tech)
	if err != nil {
		t.Fatal(err)
	}
	formula := m.Energy(2)
	m.CHD = 10e-15
	m.CEvent = 5e-15
	want := tech.EnergyPerCap(10e-15*2 + 5e-15)
	if got := m.Energy(2); math.Abs(got-want) > 1e-24 {
		t.Errorf("fitted Energy=%g, want %g", got, want)
	}
	if m.Energy(2) == formula {
		t.Error("override must change the result")
	}
	if m.Energy(0) != 0 {
		t.Error("zero HD still costs nothing")
	}
}
