package modular

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"repro/internal/nn"
)

// checkpointMagic guards against loading unrelated files.
const checkpointMagic = "nebula-checkpoint-v1"

// checkpointHeader describes the architecture a checkpoint belongs to; the
// loader validates it against the skeleton before touching any weights.
type checkpointHeader struct {
	Magic      string
	LayerSizes []int
	TopK       int
	InShape    []int
	ParamCount int
	StateCount int
	SelCount   int
}

// checkpointBody carries the numeric payload.
type checkpointBody struct {
	Backbone []float32 // stem + modules + head parameters
	States   []float32 // stem/layer/head running statistics
	Selector []float32
}

// SaveCheckpoint writes the model's parameters, running statistics and
// selector to w. The architecture itself is not serialized — both ends of a
// deployment build identical skeletons from the shared task seed (the same
// convention the edgenet protocol uses) — but the header lets the loader
// reject mismatched skeletons loudly.
func SaveCheckpoint(w io.Writer, m *Model) error {
	backbone := nn.FlattenVector(m.BackboneParams(), nil)
	states := nn.FlattenVector(nil, m.States())
	sel := m.Selector.Vector()
	hdr := checkpointHeader{
		Magic:      checkpointMagic,
		LayerSizes: m.LayerSizes(),
		TopK:       m.TopK,
		InShape:    m.InShape,
		ParamCount: len(backbone),
		StateCount: len(states),
		SelCount:   len(sel),
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("modular: encode checkpoint header: %w", err)
	}
	if err := enc.Encode(checkpointBody{Backbone: backbone, States: states, Selector: sel}); err != nil {
		return fmt.Errorf("modular: encode checkpoint body: %w", err)
	}
	return nil
}

// LoadCheckpoint restores a checkpoint into an architecturally identical
// skeleton.
func LoadCheckpoint(r io.Reader, m *Model) error {
	dec := gob.NewDecoder(r)
	var hdr checkpointHeader
	if err := dec.Decode(&hdr); err != nil {
		return fmt.Errorf("modular: decode checkpoint header: %w", err)
	}
	if hdr.Magic != checkpointMagic {
		return fmt.Errorf("modular: not a nebula checkpoint")
	}
	if !slices.Equal(hdr.LayerSizes, m.LayerSizes()) || !slices.Equal(hdr.InShape, m.InShape) {
		return fmt.Errorf("modular: checkpoint architecture %v/%v does not match skeleton %v/%v",
			hdr.LayerSizes, hdr.InShape, m.LayerSizes(), m.InShape)
	}
	var body checkpointBody
	if err := dec.Decode(&body); err != nil {
		return fmt.Errorf("modular: decode checkpoint body: %w", err)
	}
	if len(body.Backbone) != hdr.ParamCount || len(body.Selector) != hdr.SelCount {
		return fmt.Errorf("modular: checkpoint body sizes disagree with header")
	}
	bp, st := m.BackboneParams(), m.States()
	if nn.VectorLen(bp, nil) != len(body.Backbone) || nn.VectorLen(nil, st) != len(body.States) {
		return fmt.Errorf("modular: checkpoint holds %d weights and %d state values, skeleton %d and %d",
			len(body.Backbone), len(body.States), nn.VectorLen(bp, nil), nn.VectorLen(nil, st))
	}
	nn.LoadVector(body.Backbone, bp, nil)
	nn.LoadVector(body.States, nil, st)
	m.Selector.LoadVector(body.Selector)
	return nil
}
