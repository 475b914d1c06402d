package charact

import (
	"fmt"

	"ahbpower/internal/power"
)

// Config parameterizes a full gate-level bus characterization — the
// IP-characterization deliverable of the paper's §3, run once per bus
// shape and reused everywhere via power.SaveModels/LoadModels.
type Config struct {
	// NumMasters and NumSlaves describe the bus shape (required >= 1).
	NumMasters, NumSlaves int
	// DataWidth is the datapath width in bits (0 means 32).
	DataWidth int
	// Vectors is the number of random stimulus vectors per sub-block
	// (0 means 2000).
	Vectors int
	// Seed drives the stimulus generator; the same seed reproduces the
	// same fitted coefficients bit for bit.
	Seed int64
	// Tech supplies the technology constants (zero value means
	// power.DefaultTech).
	Tech power.Tech
}

// DefaultVectors is the stimulus count used when Config.Vectors is 0.
const DefaultVectors = 2000

// Characterize characterizes all four sub-blocks of a bus configuration
// at gate level and returns a complete, serializable model set: the
// decoder and both multiplexers carry fitted coefficients, the arbiter
// keeps its structural FSM coefficients (its CActive term is behavioral,
// not structural — see power.ArbiterModel).
//
// The mux netlists are characterized at a reduced width (16 bits) for
// tractability and the linear-in-w coefficients rescaled, exploiting the
// macromodel's linearity in the datapath width.
func Characterize(cfg Config) (*power.Models, error) {
	if cfg.NumMasters < 1 || cfg.NumSlaves < 1 {
		return nil, fmt.Errorf("charact: bus shape %dx%d, want at least 1x1", cfg.NumMasters, cfg.NumSlaves)
	}
	if cfg.DataWidth == 0 {
		cfg.DataWidth = 32
	}
	if cfg.Vectors == 0 {
		cfg.Vectors = DefaultVectors
	}
	if cfg.Tech.VDD == 0 {
		cfg.Tech = power.DefaultTech()
	}
	tech := cfg.Tech
	models, err := power.DefaultModels(cfg.NumMasters, cfg.NumSlaves, cfg.DataWidth, tech)
	if err != nil {
		return nil, err
	}

	// Decoder: fit CHD / CEvent directly at full size.
	decFit, err := CharacterizeDecoder(models.Dec.NO, cfg.Vectors, cfg.Seed, tech)
	if err != nil {
		return nil, err
	}
	scale := tech.VDD * tech.VDD / 4
	models.Dec.CHD = decFit.Coef[0] / scale
	models.Dec.CEvent = decFit.Coef[1] / scale

	// Muxes: characterize a 16-bit-wide instance and scale the
	// width-proportional select coefficient; CIn and COut are per-bit and
	// carry over directly.
	const fitW = 16
	fitMux := func(target *power.MuxModel, muxSeed int64) error {
		_, fitted, err := CharacterizeMux(fitW, target.N, cfg.Vectors, muxSeed, tech)
		if err != nil {
			return err
		}
		target.CIn = fitted.CIn
		target.COut = fitted.COut
		target.CSel = fitted.CSel * float64(target.W) / float64(fitW)
		return nil
	}
	if err := fitMux(models.M2S, cfg.Seed+1); err != nil {
		return nil, err
	}
	if err := fitMux(models.S2M, cfg.Seed+2); err != nil {
		return nil, err
	}
	return models, nil
}
