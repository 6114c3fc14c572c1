package modular

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// SubModel is a compact personalized model extracted from the cloud model:
// the stem, the selected modules of each module layer (deep copies — the
// device trains them locally), the head, and a copy of the lightweight
// unified selector used for routing among the selected modules.
type SubModel struct {
	Stem     nn.Layer
	Layers   []*ModuleLayer // compact: only selected modules
	Mapping  [][]int        // per layer: original module index of each compact module
	Head     nn.Layer
	Selector *Selector
	TopK     int
	InShape  []int
}

// A sub-model trains and evaluates through the same loops as any other model.
var _ nn.Layer = (*SubModel)(nil)

// Extract builds a sub-model from the cloud model for the given per-layer
// module selection (original indices, sorted).
func (m *Model) Extract(active [][]int) *SubModel {
	s := m.extract(active, nn.CloneLayer)
	s.Selector = m.Selector.Clone()
	return s
}

// ExtractWeights is Extract for a sub-model that will only be read — flattened
// for a transfer, blended into a device's copy, folded in by
// AggregateModuleWise: the same stem, modules, head and mapping, without
// gradient accumulators and without a selector. It cannot run or train.
func (m *Model) ExtractWeights(active [][]int) *SubModel {
	return m.extract(active, nn.CloneWeights)
}

func (m *Model) extract(active [][]int, clone func(nn.Layer) nn.Layer) *SubModel {
	s := &SubModel{
		Stem:    clone(m.Stem),
		Head:    clone(m.Head),
		TopK:    m.TopK,
		InShape: append([]int(nil), m.InShape...),
	}
	for l, idx := range active {
		layer := NewModuleLayer()
		mapping := make([]int, len(idx))
		for j, i := range idx {
			layer.Modules = append(layer.Modules, clone(m.Layers[l].Modules[i]))
			mapping[j] = i
		}
		s.Layers = append(s.Layers, layer)
		s.Mapping = append(s.Mapping, mapping)
	}
	return s
}

// rebuilt returns a sub-model of s's structure (its own copy of the mapping)
// whose stem, modules and head are remake(s's); no selector.
func (s *SubModel) rebuilt(remake func(nn.Layer) nn.Layer) *SubModel {
	c := &SubModel{
		Stem:    remake(s.Stem),
		Head:    remake(s.Head),
		TopK:    s.TopK,
		InShape: s.InShape,
	}
	for l, layer := range s.Layers {
		nl := NewModuleLayer()
		for _, mod := range layer.Modules {
			nl.Modules = append(nl.Modules, remake(mod))
		}
		c.Layers = append(c.Layers, nl)
		c.Mapping = append(c.Mapping, append([]int(nil), s.Mapping[l]...))
	}
	return c
}

// WithBackbone returns the weights-only sub-model (see ExtractWeights) that
// has s's structure and states and vec — a BackboneVector of that structure —
// as its backbone: what the far end of a link holds after s crossed it.
func (s *SubModel) WithBackbone(vec []float32) *SubModel {
	c := s.rebuilt(nn.CloneWeights)
	c.LoadBackboneVector(vec)
	return c
}

// Park sheds everything s holds beyond the model itself — gradient
// accumulators, the last batch's activations and routing, layer reuse
// buffers — keeping weights, states, selector and mapping. A device's
// sub-model spends most rounds unsampled; parked, it pins what it would cost
// to ship, not what it cost to train. Training a parked sub-model needs
// nn.EnsureGrads first (fed.TrainLayer does it); the optimizer leaves
// gradients zero after every step, so train → Park → train computes exactly
// what train → train does.
func (s *SubModel) Park() {
	sel := s.Selector
	*s = *s.rebuilt(nn.Bare)
	if sel != nil {
		s.Selector = sel.bare()
	}
}

// Clone deep-copies a selector for forward-only use: importance probes and
// the frozen edge-side copy inside a sub-model, neither of which trains it,
// so the copy carries no gradient accumulators. The clone is built from reads
// only — it must not draw from the parent's RNG stream, because Extract runs
// concurrently across devices during parallel rounds and the parent stream
// would then depend on extraction order. The clone gets a fixed-seed stream
// instead; it is only ever consumed by noisy-top-k training forwards, which
// edge-side selector copies (frozen, train=false) never perform.
func (s *Selector) Clone() *Selector { return s.remade(nn.CloneWeights) }

// bare is the selector over the same weights with its activation caches
// dropped (see nn.Bare).
func (s *Selector) bare() *Selector { return s.remade(nn.Bare) }

func (s *Selector) remade(remake func(nn.Layer) nn.Layer) *Selector {
	c := &Selector{
		Embed:    remake(s.Embed).(*nn.Sequential),
		NoiseStd: s.NoiseStd,
		rng:      tensor.NewRNG(0x5e1ec708), // "selector": constant, parent stream untouched
	}
	for _, h := range s.Heads {
		c.Heads = append(c.Heads, remake(h).(*nn.Dense))
	}
	return c
}

// Forward runs the compact sub-model. Selector probabilities are computed at
// full module width, restricted to the present modules, and renormalized by
// the module layer's top-k machinery.
func (s *SubModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	probs := s.Selector.Forward(x, false) // selector is frozen on the edge
	h := s.Stem.Forward(x, train)
	batch := x.Dim(0)
	for l, layer := range s.Layers {
		// Build compact gate rows: probability of each present module under
		// the full selector distribution.
		compact := make([][]float32, batch)
		for b := 0; b < batch; b++ {
			row := make([]float32, layer.N())
			for j, orig := range s.Mapping[l] {
				row[j] = probs[l][b][orig]
			}
			compact[b] = row
		}
		h = layer.Forward(h, compact, s.TopK, nil, train)
	}
	return s.Head.Forward(h, train)
}

// Backward propagates through head, modules and stem, accumulating their
// gradients, and returns the stem's input gradient. The selector receives no
// gradient on the edge (it is updated only on the cloud), matching the
// paper's division of labor.
func (s *SubModel) Backward(dLogits *tensor.Tensor) *tensor.Tensor {
	g := s.Head.Backward(dLogits)
	for l := len(s.Layers) - 1; l >= 0; l-- {
		g, _ = s.Layers[l].Backward(g)
	}
	return s.Stem.Backward(g)
}

// Params returns the locally trainable parameters: stem, modules, head.
func (s *SubModel) Params() []*nn.Param {
	ps := s.Stem.Params()
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return append(ps, s.Head.Params()...)
}

// BackboneBytes returns the wire size of the stem + selected modules + head
// (parameters and states) — what a sub-model refresh transfers.
func (s *SubModel) BackboneBytes() int64 {
	n := nn.ParamCount(s.Params())
	for _, st := range nn.LayerStates(s.Stem) {
		n += st.Len()
	}
	for _, st := range nn.LayerStates(s.Head) {
		n += st.Len()
	}
	return int64(n) * 4
}

// SelectorBytes returns the wire size of the unified selector, transferred
// once per device (the selector is frozen during the online stage).
func (s *SubModel) SelectorBytes() int64 {
	return int64(nn.ParamCount(s.Selector.Params())) * 4
}

// ParamBytes returns the wire size of a full first-time sub-model transfer:
// backbone plus selector.
func (s *SubModel) ParamBytes() int64 {
	return s.BackboneBytes() + s.SelectorBytes()
}

// AllStates returns every layer state tensor of the sub-model — stem, each
// selected module in layer order, head — in a fixed order. Two sub-models
// extracted from the same mapping align element-wise.
func (s *SubModel) AllStates() []*tensor.Tensor {
	st := nn.LayerStates(s.Stem)
	for _, l := range s.Layers {
		for _, m := range l.Modules {
			st = append(st, nn.LayerStates(m)...)
		}
	}
	return append(st, nn.LayerStates(s.Head)...)
}

// backboneStates returns stem and head state tensors in a fixed order.
func (s *SubModel) backboneStates() []*tensor.Tensor {
	st := nn.LayerStates(s.Stem)
	return append(st, nn.LayerStates(s.Head)...)
}

// BackboneVector flattens the backbone (stem, modules, head parameters plus
// stem/head states) into a wire vector.
func (s *SubModel) BackboneVector() []float32 {
	return nn.FlattenVector(s.Params(), s.backboneStates())
}

// LoadBackboneVector restores a vector produced by BackboneVector on a
// sub-model with the identical active-module architecture.
func (s *SubModel) LoadBackboneVector(v []float32) {
	nn.LoadVector(v, s.Params(), s.backboneStates())
}

// Vector flattens the selector parameters for the wire.
func (s *Selector) Vector() []float32 {
	return nn.FlattenVector(s.Params(), nil)
}

// LoadVector restores selector parameters from Vector output.
func (s *Selector) LoadVector(v []float32) {
	nn.LoadVector(v, s.Params(), nil)
}

// NumModules returns the total selected module count.
func (s *SubModel) NumModules() int {
	n := 0
	for _, l := range s.Layers {
		n += l.N()
	}
	return n
}

// DropModule removes the locally least-important module of the widest layer
// (by current mapping width), the runtime "module scheduling" adjustment the
// paper describes for resource fluctuations. Importance is taken from a
// selector pass over probe. Layers with a single module are left intact.
// Returns false if nothing could be dropped.
func (s *SubModel) DropModule(probe *tensor.Tensor) bool {
	probs := s.Selector.Forward(probe, false)
	batch := probe.Dim(0)
	bestLayer, bestIdx := -1, -1
	bestImp := 0.0
	for l, layer := range s.Layers {
		if layer.N() <= 1 {
			continue
		}
		for j, orig := range s.Mapping[l] {
			var imp float64
			for b := 0; b < batch; b++ {
				imp += float64(probs[l][b][orig])
			}
			if bestLayer == -1 || imp < bestImp {
				bestLayer, bestIdx, bestImp = l, j, imp
			}
		}
	}
	if bestLayer == -1 {
		return false
	}
	layer := s.Layers[bestLayer]
	layer.Modules = append(layer.Modules[:bestIdx], layer.Modules[bestIdx+1:]...)
	s.Mapping[bestLayer] = append(s.Mapping[bestLayer][:bestIdx], s.Mapping[bestLayer][bestIdx+1:]...)
	return true
}
