package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"ahbpower/internal/stats"
)

func TestTable1Shape(t *testing.T) {
	res, err := Table1(20000)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	// The headline conclusion: data transfer dominates, arbitration is a
	// small-but-visible slice (paper: ~87% vs ~12.7%).
	if r.DataTransferShare < 0.7 || r.DataTransferShare > 0.95 {
		t.Errorf("data-transfer share=%.1f%%, want ~87%%", 100*r.DataTransferShare)
	}
	if r.ArbitrationShare < 0.05 || r.ArbitrationShare > 0.25 {
		t.Errorf("arbitration share=%.1f%%, want ~12%%", 100*r.ArbitrationShare)
	}
	// Per-instruction averages in the paper's band (14.7-22.4 pJ),
	// allowing a factor ~2 in calibration slack.
	byName := map[string]float64{}
	for _, row := range r.Table {
		if row.Count > 100 {
			byName[row.Instruction] = row.AvgEnergy * 1e12
		}
	}
	for _, name := range []string{"READ_WRITE", "WRITE_READ", "IDLE_HO_IDLE_HO"} {
		pj, ok := byName[name]
		if !ok {
			t.Fatalf("instruction %s missing from table", name)
		}
		if pj < 7 || pj > 45 {
			t.Errorf("%s avg=%.1f pJ, outside band [7,45]", name, pj)
		}
	}
	// Paper ordering: READ_WRITE costs more than WRITE_READ.
	if byName["READ_WRITE"] <= byName["WRITE_READ"] {
		t.Errorf("READ_WRITE (%.1f pJ) must exceed WRITE_READ (%.1f pJ)",
			byName["READ_WRITE"], byName["WRITE_READ"])
	}
	if !strings.Contains(res.Text, "Paper reference") {
		t.Error("text must include the paper reference block")
	}
}

func TestFiguresShape(t *testing.T) {
	// 4 us at 100 MHz = 400 cycles analyzed in the paper; run longer and
	// window at 100 ns as the plots do.
	res, err := Figures(4000, 100e-9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Len() < 10 {
		t.Fatalf("total trace has %d points", res.Total.Len())
	}
	// Fig. 4 vs Fig. 5: the arbiter dissipates visibly less than the M2S
	// multiplexer.
	if res.ARB.MeanY() >= res.M2S.MeanY() {
		t.Errorf("arbiter mean %g W must be below M2S mean %g W", res.ARB.MeanY(), res.M2S.MeanY())
	}
	// Fig. 6 ordering: M2S dominates; DEC and ARB are minor.
	r := res.Report
	if r.BlockShare["M2S"] < r.BlockShare["S2M"] ||
		r.BlockShare["M2S"] < r.BlockShare["ARB"] ||
		r.BlockShare["M2S"] < r.BlockShare["DEC"] {
		t.Errorf("M2S must dominate the breakdown: %v", r.BlockShare)
	}
	// Traces decompose: total = sum of block traces, pointwise.
	for i, p := range res.Total.Points {
		sum := res.ARB.Points[i].Y + res.M2S.Points[i].Y + res.DEC.Points[i].Y + res.S2M.Points[i].Y
		if math.Abs(sum-p.Y) > 1e-9*math.Abs(p.Y)+1e-12 {
			t.Fatalf("point %d: block sum %g != total %g", i, sum, p.Y)
		}
	}
}

// TestFiguresGolden pins every figure series bit for bit: a SHA-256 over
// each series' little-endian point count, then the Float64bits of each
// point's X and Y, for Total, ARB, M2S, DEC and S2M in that order.
func TestFiguresGolden(t *testing.T) {
	res, err := Figures(4000, 100e-9)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range []*stats.Series{res.Total, res.ARB, res.M2S, res.DEC, res.S2M} {
		put(uint64(s.Len()))
		for _, p := range s.Points {
			put(math.Float64bits(p.X))
			put(math.Float64bits(p.Y))
		}
	}
	const want = "9fcbda3244570706f8975c3a69f2b3f4d8dbd6d4d7d7cfbce8d8f5785f1fcdb3"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("figure series digest %s, want %s", got, want)
	}
}

func TestFiguresRejectsNonPositiveWindow(t *testing.T) {
	// A window that is not positive and finite yields no trace; Figures
	// must reject it up front instead of returning empty or NaN series.
	for _, w := range []float64{0, -1e-9, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Figures(400, w); err == nil {
			t.Errorf("Figures(400, %g) = nil error, want window rejection", w)
		}
	}
}

func TestOverheadMeasurable(t *testing.T) {
	res, err := Overhead(4000)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineMS <= 0 {
		t.Fatal("baseline time must be positive")
	}
	for style, x := range res.Slowdown {
		if x < 0.5 || x > 50 {
			t.Errorf("style %s slowdown x%.2f implausible", style, x)
		}
	}
	// The most intrusive style must cost at least as much as the least.
	if res.PerStyleMS["private"] < res.PerStyleMS["global"]*0.5 {
		t.Error("private style implausibly cheaper than global")
	}
}

func TestValidationFits(t *testing.T) {
	res, err := Validation(1500, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decoder.R2 < 0.8 {
		t.Errorf("decoder fit R2=%v", res.Decoder.R2)
	}
	if res.Mux.R2 < 0.7 {
		t.Errorf("mux fit R2=%v", res.Mux.R2)
	}
	if res.Arbiter.R2 < 0.5 {
		t.Errorf("arbiter fit R2=%v", res.Arbiter.R2)
	}
	if !strings.Contains(res.Text, "decoder") {
		t.Error("text incomplete")
	}
}

func TestGranularityFineBeatsCoarse(t *testing.T) {
	res, err := Granularity(8000)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredJ <= 0 {
		t.Fatal("measured energy must be positive")
	}
	// Both models predict within a loose bound; the fine model must not be
	// substantially worse than the coarse one (§3: finer granularity gives
	// better accuracy at higher characterization cost).
	if res.FinePct > 25 {
		t.Errorf("fine model error %.1f%%, want <25%%", res.FinePct)
	}
	if res.CoarsePct > 40 {
		t.Errorf("coarse model error %.1f%%, want <40%%", res.CoarsePct)
	}
	if res.FinePct > res.CoarsePct+5 {
		t.Errorf("fine (%.1f%%) should not be much worse than coarse (%.1f%%)", res.FinePct, res.CoarsePct)
	}
}

func TestModelStylesAgree(t *testing.T) {
	res, err := ModelStyles(4000)
	if err != nil {
		t.Fatal(err)
	}
	g := res.EnergyJ["global"]
	for style, e := range res.EnergyJ {
		if e <= 0 {
			t.Fatalf("style %s energy %g", style, e)
		}
		if ratio := e / g; ratio < 0.4 || ratio > 2.5 {
			t.Errorf("style %s diverges: %g vs global %g", style, e, g)
		}
	}
}

func TestParametricMonotone(t *testing.T) {
	res, err := Parametric()
	if err != nil {
		t.Fatal(err)
	}
	if res.DecoderPJ[16] <= res.DecoderPJ[2] {
		t.Error("decoder energy must grow with slave count")
	}
	if res.MuxPJ[64] <= res.MuxPJ[8] {
		t.Error("mux select energy must grow with width")
	}
}
