package power

import (
	"math"
	"math/rand"
	"testing"
)

// The models evaluate their closed forms on every call. The tests below
// write each closed form out once more, as the cold path, and require
// Energy to match it bit for bit under randomized in-place refits (the
// writes internal/charact performs): a memo, cache or coefficient
// snapshot that serves a stale value after a refit fails here.

// decoderColdPath is the decoder closed form with HD_OUT = 1, or the
// characterized CHD/CEvent fit when CHD is set.
func decoderColdPath(m *DecoderModel, hdIn int) float64 {
	if hdIn <= 0 {
		return 0
	}
	if m.CHD > 0 {
		return m.Tech.EnergyPerCap(m.CHD*float64(hdIn) + m.CEvent)
	}
	c := float64(m.NI)*float64(m.NO)*m.Tech.CPD*float64(hdIn) + 2*m.Tech.CO
	return m.Tech.EnergyPerCap(c)
}

func muxColdPath(m *MuxModel, hdIn, hdSel, hdOut int) float64 {
	c := m.CIn*float64(hdIn) + m.CSel*float64(hdSel) + m.COut*float64(hdOut)
	return m.Tech.EnergyPerCap(c)
}

func arbiterColdPath(m *ArbiterModel, hdReq, hdGrant int, handover, arbitrating bool) float64 {
	c := m.CReq*float64(hdReq) + m.CGrant*float64(hdGrant)
	if handover {
		c += m.CHandover
	}
	if arbitrating {
		c += m.CActive
	}
	return m.Tech.EnergyPerCap(c)
}

// TestDecoderMemoMatchesColdPath drives the decoder model with randomized
// Hamming distances, interleaving coefficient refits, and requires every
// result to be bit-identical to the cold path.
func TestDecoderMemoMatchesColdPath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, err := NewDecoderModel(5, DefaultTech())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		switch rng.Intn(100) {
		case 0: // refit to characterized coefficients mid-run
			m.CHD = rng.Float64() * 1e-12
			m.CEvent = rng.Float64() * 1e-13
		case 1: // back to the structural closed form
			m.CHD, m.CEvent = 0, 0
		case 2: // technology change
			m.Tech.VDD = 1 + rng.Float64()
		}
		hd := rng.Intn(260) - 5 // negatives and distances past any bus width
		got, want := m.Energy(hd), decoderColdPath(m, hd)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("iter %d: DecoderModel.Energy(%d) = %x, cold = %x",
				i, hd, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestMuxMemoMatchesColdPath does the same for the mux model's
// (HD_IN, HD_SEL, HD_OUT) evaluation and its ClockEnergy, with arguments
// both in the range bus traffic produces and far outside it.
func TestMuxMemoMatchesColdPath(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, err := NewMuxModel(32, 4, DefaultTech())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		switch rng.Intn(100) {
		case 0:
			m.CIn = rng.Float64() * 1e-12
			m.CSel = rng.Float64() * 1e-12
			m.COut = rng.Float64() * 1e-12
		case 1:
			m.CClkCycle = rng.Float64() * 1e-13
		case 2:
			m.Tech.VDD = 1 + rng.Float64()
		}
		// Mostly bus-traffic-sized triples, occasionally out of range.
		span := 40
		if rng.Intn(10) == 0 {
			span = 400
		}
		hdIn, hdSel, hdOut := rng.Intn(span)-5, rng.Intn(span)-5, rng.Intn(span)-5
		got, want := m.Energy(hdIn, hdSel, hdOut), muxColdPath(m, hdIn, hdSel, hdOut)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("iter %d: MuxModel.Energy(%d,%d,%d) = %x, cold = %x",
				i, hdIn, hdSel, hdOut, math.Float64bits(got), math.Float64bits(want))
		}
		if ce, cold := m.ClockEnergy(), m.Tech.EnergyPerCap(m.CClkCycle); math.Float64bits(ce) != math.Float64bits(cold) {
			t.Fatalf("iter %d: ClockEnergy = %x, cold = %x",
				i, math.Float64bits(ce), math.Float64bits(cold))
		}
	}
}

// TestArbiterMemoMatchesColdPath covers the arbiter over the request and
// grant distances a 16-master bus can produce, plus private-style glitch
// counts beyond them, under coefficient refits.
func TestArbiterMemoMatchesColdPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := NewArbiterModel(4, DefaultTech())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		switch rng.Intn(100) {
		case 0:
			m.CReq = rng.Float64() * 1e-12
			m.CGrant = rng.Float64() * 1e-12
		case 1:
			m.CHandover = rng.Float64() * 1e-12
			m.CActive = rng.Float64() * 1e-12
		case 2:
			m.Tech.VDD = 1 + rng.Float64()
		}
		span := 18 // -1..16: at most 16 request or grant lines toggle
		if rng.Intn(10) == 0 {
			span = 100
		}
		hdReq, hdGrant := rng.Intn(span)-1, rng.Intn(span)-1
		ho, arb := rng.Intn(2) == 1, rng.Intn(2) == 1
		got, want := m.Energy(hdReq, hdGrant, ho, arb), arbiterColdPath(m, hdReq, hdGrant, ho, arb)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("iter %d: ArbiterModel.Energy(%d,%d,%v,%v) = %x, cold = %x",
				i, hdReq, hdGrant, ho, arb, math.Float64bits(got), math.Float64bits(want))
		}
	}
}
