package charact

import (
	"math"
	"strings"
	"testing"

	"ahbpower/internal/power"
)

func tech() power.Tech { return power.Tech{VDD: 1.8, CPD: 20e-15, CO: 50e-15} }

func TestCharacterizeDecoderFitsWell(t *testing.T) {
	fit, err := CharacterizeDecoder(8, 2000, 1, tech())
	if err != nil {
		t.Fatal(err)
	}
	if fit.Samples != 2000 {
		t.Errorf("samples=%d", fit.Samples)
	}
	if fit.R2 < 0.8 {
		t.Errorf("R2=%v, want a strongly linear relationship", fit.R2)
	}
	if len(fit.Coef) != 2 {
		t.Fatalf("coef=%v", fit.Coef)
	}
	if fit.Coef[0] <= 0 {
		t.Errorf("HD coefficient=%g, must be positive", fit.Coef[0])
	}
	// The fitted model must track gate level at least as well as the
	// a-priori formula.
	if fit.FitMAPE > fit.ModelMAPE+1e-9 {
		t.Errorf("fit MAPE %v worse than a-priori %v", fit.FitMAPE, fit.ModelMAPE)
	}
}

func TestCharacterizeDecoderPaperFormulaReasonable(t *testing.T) {
	// The paper's closed form must stay within a factor-level error of the
	// gate-level truth (it is an approximation, not an exact law).
	fit, err := CharacterizeDecoder(4, 1500, 2, tech())
	if err != nil {
		t.Fatal(err)
	}
	if fit.ModelMAPE > 400 {
		t.Errorf("a-priori decoder model MAPE=%v%%, implausibly bad", fit.ModelMAPE)
	}
}

func TestCharacterizeMux(t *testing.T) {
	fit, fitted, err := CharacterizeMux(8, 4, 3000, 3, tech())
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 < 0.7 {
		t.Errorf("R2=%v", fit.R2)
	}
	if len(fit.Coef) != 3 {
		t.Fatalf("coef=%v", fit.Coef)
	}
	for i, c := range fit.Coef {
		if c <= 0 {
			t.Errorf("coefficient %s=%g, must be positive", fit.Features[i], c)
		}
	}
	if fitted.CIn <= 0 || fitted.CSel <= 0 || fitted.COut <= 0 {
		t.Error("fitted capacitances must be positive")
	}
	// Select re-steer must be the most expensive per unit HD, as the
	// macromodel assumes.
	if fitted.CSel <= fitted.CIn {
		t.Errorf("CSel=%g must exceed CIn=%g", fitted.CSel, fitted.COut)
	}
}

func TestCharacterizeMuxFittedBeatsDefault(t *testing.T) {
	fit, _, err := CharacterizeMux(16, 3, 3000, 4, tech())
	if err != nil {
		t.Fatal(err)
	}
	if fit.FitMAPE > fit.ModelMAPE+1e-9 {
		t.Errorf("fitted MAPE %v must be <= default-model MAPE %v", fit.FitMAPE, fit.ModelMAPE)
	}
}

func TestCharacterizeArbiter(t *testing.T) {
	fit, err := CharacterizeArbiter(4, 2000, 5, tech())
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 < 0.5 {
		t.Errorf("R2=%v", fit.R2)
	}
	if len(fit.Coef) != 3 {
		t.Fatalf("coef=%v", fit.Coef)
	}
	// Grant changes move flops and outputs: coefficient must be positive.
	if fit.Coef[1] <= 0 {
		t.Errorf("HD_GRANT coefficient=%g", fit.Coef[1])
	}
}

func TestCharacterizeDeterministic(t *testing.T) {
	a, err := CharacterizeDecoder(4, 500, 7, tech())
	if err != nil {
		t.Fatal(err)
	}
	b, err := CharacterizeDecoder(4, 500, 7, tech())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Coef {
		if math.Abs(a.Coef[i]-b.Coef[i]) > 1e-21 {
			t.Error("same seed must give identical fits")
		}
	}
}

func TestCharacterizeErrors(t *testing.T) {
	if _, err := CharacterizeDecoder(1, 100, 1, tech()); err == nil {
		t.Error("bad decoder size must fail")
	}
	if _, _, err := CharacterizeMux(0, 4, 100, 1, tech()); err == nil {
		t.Error("bad mux size must fail")
	}
	if _, err := CharacterizeArbiter(1, 100, 1, tech()); err == nil {
		t.Error("bad arbiter size must fail")
	}
}

func TestFitString(t *testing.T) {
	fit, err := CharacterizeDecoder(4, 300, 9, tech())
	if err != nil {
		t.Fatal(err)
	}
	if s := fit.String(); len(s) == 0 {
		t.Error("empty summary")
	}
}

func TestFitBusModels(t *testing.T) {
	m, err := Characterize(Config{NumMasters: 3, NumSlaves: 3, DataWidth: 32, Vectors: 1500, Seed: 21, Tech: tech()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Dec.CHD <= 0 {
		t.Error("decoder must carry a fitted HD coefficient")
	}
	if m.M2S.CIn <= 0 || m.M2S.CSel <= 0 || m.M2S.COut <= 0 {
		t.Error("M2S must carry fitted coefficients")
	}
	if m.S2M.CIn <= 0 {
		t.Error("S2M must carry fitted coefficients")
	}
	if m.M2S.W != 72 {
		t.Errorf("M2S width=%d, want 72 (32 addr + 8 ctrl + 32 data)", m.M2S.W)
	}
	// The select coefficient was fitted at 16 bits and rescaled to the
	// full 72-bit width, so it must exceed the raw 16-bit fit.
	_, fitted16, err := CharacterizeMux(16, 3, 1500, 22, tech())
	if err != nil {
		t.Fatal(err)
	}
	if m.M2S.CSel <= fitted16.CSel {
		t.Errorf("CSel=%g must exceed the 16-bit fit %g after width scaling", m.M2S.CSel, fitted16.CSel)
	}
}

func TestFitBusModelsRoundTripThroughJSON(t *testing.T) {
	m, err := Characterize(Config{NumMasters: 2, NumSlaves: 2, DataWidth: 32, Vectors: 800, Seed: 5, Tech: tech()})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := power.SaveModels(&sb, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := power.LoadModels(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Dec.Energy(1) != m.Dec.Energy(1) {
		t.Error("fitted decoder energy lost in serialization")
	}
}
