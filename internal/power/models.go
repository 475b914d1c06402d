package power

import (
	"encoding/json"
	"fmt"
	"io"
)

// Models bundles the four sub-block macromodels of one bus configuration.
// A Models value is the reusable "power model of the IP" the paper's §2
// motivates: produced once by characterization, serialized alongside the
// core, and loaded by anyone integrating it — no re-characterization.
// Each macromodel is a closed-form function of its coefficients and its
// Hamming-distance arguments; it holds no state of its own.
type Models struct {
	Dec *DecoderModel `json:"decoder"`
	M2S *MuxModel     `json:"m2s"`
	S2M *MuxModel     `json:"s2m"`
	Arb *ArbiterModel `json:"arbiter"`
}

// DefaultModels builds the structural-default models for a bus shape.
func DefaultModels(numMasters, numSlaves, dataWidth int, tech Tech) (*Models, error) {
	if numMasters < 2 {
		numMasters = 2
	}
	if numSlaves < 2 {
		numSlaves = 2
	}
	dec, err := NewDecoderModel(numSlaves, tech)
	if err != nil {
		return nil, err
	}
	m2s, err := NewMuxModel(32+8+dataWidth, numMasters, tech)
	if err != nil {
		return nil, err
	}
	s2m, err := NewMuxModel(dataWidth+3, numSlaves, tech)
	if err != nil {
		return nil, err
	}
	arb, err := NewArbiterModel(numMasters, tech)
	if err != nil {
		return nil, err
	}
	return &Models{Dec: dec, M2S: m2s, S2M: s2m, Arb: arb}, nil
}

// ResolveModels returns the model set a run on a bus of the given shape
// evaluates: the structural defaults when m is nil, otherwise m itself
// once it is complete and characterized for that shape. The zero Tech
// selects DefaultTech for the defaults; a caller's set carries its own.
// Energy evaluation only reads a model set, so any number of concurrent
// runs may share one.
func ResolveModels(m *Models, numMasters, numSlaves, dataWidth int, tech Tech) (*Models, error) {
	if tech.VDD == 0 {
		tech = DefaultTech()
	}
	def, err := DefaultModels(numMasters, numSlaves, dataWidth, tech)
	if m == nil || err != nil {
		return def, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	for _, d := range []struct {
		field     string
		got, want int
	}{
		{"decoder.NO", m.Dec.NO, def.Dec.NO},
		{"m2s.N", m.M2S.N, def.M2S.N},
		{"m2s.W", m.M2S.W, def.M2S.W},
		{"s2m.N", m.S2M.N, def.S2M.N},
		{"s2m.W", m.S2M.W, def.S2M.W},
		{"arbiter.N", m.Arb.N, def.Arb.N},
	} {
		if d.got != d.want {
			return nil, fmt.Errorf("power: model set has %s=%d, but a %d-master %d-slave %d-bit bus needs %d",
				d.field, d.got, numMasters, numSlaves, dataWidth, d.want)
		}
	}
	return m, nil
}

// Validate checks that a loaded model set is complete and plausible.
func (m *Models) Validate() error {
	if m.Dec == nil || m.M2S == nil || m.S2M == nil || m.Arb == nil {
		return fmt.Errorf("power: model set incomplete")
	}
	if m.Dec.NO < 2 || m.Dec.Tech.VDD <= 0 {
		return fmt.Errorf("power: bad decoder model")
	}
	if m.M2S.W < 1 || m.M2S.N < 2 || m.S2M.W < 1 || m.S2M.N < 2 {
		return fmt.Errorf("power: bad mux model dimensions")
	}
	if m.Arb.N < 1 {
		return fmt.Errorf("power: bad arbiter model")
	}
	return nil
}

// modelFile is the on-disk representation with a format version.
type modelFile struct {
	Format int     `json:"format"`
	Models *Models `json:"models"`
}

// currentModelFormat is the serialization version.
const currentModelFormat = 1

// SaveModels writes a model set as JSON.
func SaveModels(w io.Writer, m *Models) error {
	if err := m.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(modelFile{Format: currentModelFormat, Models: m})
}

// LoadModels reads a model set written by SaveModels.
func LoadModels(r io.Reader) (*Models, error) {
	var f modelFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("power: parsing model file: %w", err)
	}
	if f.Format != currentModelFormat {
		return nil, fmt.Errorf("power: unsupported model format %d", f.Format)
	}
	if f.Models == nil {
		return nil, fmt.Errorf("power: model file has no models")
	}
	if err := f.Models.Validate(); err != nil {
		return nil, err
	}
	return f.Models, nil
}
