package modular

import (
	"fmt"

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

	// One layer's gate rows restricted to the present modules, rebuilt per
	// layer per Forward over the same flat array (a routed layer reads its
	// gates only while routing).
	gateRows [][]float32
	gateFlat []float32
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

// extract builds the sub-model for a selection; clone is handed the stem, the
// selected modules layer by layer, then the head — backbone-vector order.
func (m *Model) extract(active [][]int, clone func(nn.Layer) nn.Layer) *SubModel {
	s := &SubModel{
		Stem:    clone(m.Stem),
		TopK:    m.TopK,
		InShape: append([]int(nil), m.InShape...),
	}
	for l, idx := range active {
		layer := NewModuleLayer()
		for _, i := range idx {
			layer.Modules = append(layer.Modules, clone(m.Layers[l].Modules[i]))
		}
		s.Layers = append(s.Layers, layer)
		s.Mapping = append(s.Mapping, append([]int{}, idx...))
	}
	s.Head = clone(m.Head)
	return s
}

// Selection returns m's own tensors behind the sub-model that selects active,
// for a reader that needs no copy of them: parameters in SubModel.Params order
// — stem, selected modules, head — and states in SubModel.AllStates order. The
// caller only reads them, under whatever guards m against an aggregation.
func (m *Model) Selection(active [][]int) ([]*nn.Param, []*tensor.Tensor) {
	ps, st := m.Stem.Params(), nn.LayerStates(m.Stem)
	for l, idx := range active {
		for _, i := range idx {
			ps = append(ps, m.Layers[l].Modules[i].Params()...)
			st = append(st, nn.LayerStates(m.Layers[l].Modules[i])...)
		}
	}
	return append(ps, m.Head.Params()...), append(st, nn.LayerStates(m.Head)...)
}

// selection is Selection with the states a backbone vector carries: the
// stem's and the head's.
func (m *Model) selection(active [][]int) ([]*nn.Param, []*tensor.Tensor) {
	ps, _ := m.Selection(active)
	return ps, append(nn.LayerStates(m.Stem), nn.LayerStates(m.Head)...)
}

// AppendBackboneVector appends to dst, straight from m's own tensors, the wire
// vector of the sub-model that selects active — bit for bit what
// Extract(active).BackboneVector() holds, without building the sub-model. It
// only reads m.
func (m *Model) AppendBackboneVector(dst []float32, active [][]int) []float32 {
	params, states := m.selection(active)
	return nn.AppendVector(dst, params, states)
}

// SubModelOver returns the sub-model that selects active and has vec — a
// BackboneVector of that structure — as its backbone, without copying it:
// every parameter tensor is a window of vec, so the caller gives vec up to the
// sub-model. It is weights-only — no gradient accumulators, no selector — to
// be read (flattened, blended from, folded in by AggregateModuleWise), not run
// or trained. Stem and head states are copied out of vec's tail; module
// states, which a backbone vector does not carry, are copies of m's, so the
// caller must hold whatever guards m against a concurrent aggregation. A
// selection m does not have or a vector of the wrong length is an error, and
// nothing is built.
func (m *Model) SubModelOver(active [][]int, vec []float32) (*SubModel, error) {
	if len(active) != len(m.Layers) {
		return nil, fmt.Errorf("modular: selection spans %d layers, model has %d", len(active), len(m.Layers))
	}
	for l, idx := range active {
		for _, i := range idx {
			if i < 0 || i >= m.Layers[l].N() {
				return nil, fmt.Errorf("modular: selection names module %d of layer %d, which has %d", i, l, m.Layers[l].N())
			}
		}
	}
	if want := nn.VectorLen(m.selection(active)); len(vec) != want {
		return nil, fmt.Errorf("modular: backbone vector of %d elements for a selection that holds %d", len(vec), want)
	}
	s := m.extract(active, func(l nn.Layer) nn.Layer {
		var c nn.Layer
		c, vec = nn.CloneOver(l, vec)
		return c
	})
	nn.LoadVector(vec, nil, s.backboneStates())
	return s, nil
}

// WithBackbone is SubModelOver with s for the model and all s holds for the
// selection: the weights-only view of vec, given up to it, with s's mapping
// and module states — what the far end of a link holds after s crossed it. A
// vector of the wrong length panics before anything is built.
func (s *SubModel) WithBackbone(vec []float32) *SubModel {
	whole := &Model{Stem: s.Stem, Layers: s.Layers, Head: s.Head, TopK: s.TopK, InShape: s.InShape}
	all := make([][]int, len(s.Layers))
	for l, layer := range s.Layers {
		for j := 0; j < layer.N(); j++ {
			all[l] = append(all[l], j)
		}
	}
	c, err := whole.SubModelOver(all, vec)
	if err != nil {
		panic(err)
	}
	for l := range c.Mapping {
		copy(c.Mapping[l], s.Mapping[l])
	}
	return c
}

// ReleaseBuffers is how nn.ReleaseBuffers, and with it every loop that runs
// a bout, ends one on a sub-model: Model.Park on its parts, and its gate rows
// go. It keeps weights, states, selector and mapping.
func (s *SubModel) ReleaseBuffers() {
	(&Model{Stem: s.Stem, Layers: s.Layers, Head: s.Head, Selector: s.Selector}).Park()
	s.gateRows, s.gateFlat = nil, nil
}

// Park ends a training or evaluation bout on m in place, as nn.ReleaseBuffers
// does for a layer: TrainEndToEnd and AbilityEnhance park the cloud model as
// they return. Its layers stay the objects they were, with the input
// geometry they recorded, so the module costs the model holds for that
// geometry (ModuleCosts, which Derive reads) hold after a Park too.
func (m *Model) Park() {
	nn.ReleaseBuffers(m.Stem)
	nn.ReleaseBuffers(m.Head)
	for _, layer := range m.Layers {
		layer.release()
	}
	if m.Selector != nil {
		m.Selector.release()
	}
	m.lastProbs = nil
}

// Clone deep-copies a selector for forward-only use: importance probes and
// the frozen edge-side copy inside a sub-model, neither of which trains it,
// so the copy carries no gradient accumulators. The clone is built from reads
// only — it must not draw from the parent's RNG stream, because Extract runs
// concurrently across devices during parallel rounds and the parent stream
// would then depend on extraction order. The clone gets a fixed-seed stream
// instead; it is only ever consumed by noisy-top-k training forwards, which
// edge-side selector copies (frozen, train=false) never perform.
func (s *Selector) Clone() *Selector {
	c := &Selector{
		Embed:    nn.CloneWeights(s.Embed).(*nn.Sequential),
		NoiseStd: s.NoiseStd,
		rng:      tensor.NewRNG(0x5e1ec708), // "selector": constant, parent stream untouched
	}
	for _, h := range s.Heads {
		c.Heads = append(c.Heads, nn.CloneWeights(h).(*nn.Dense))
	}
	return c
}

// CloneInto is Clone for a caller that keeps its copy: dst, a copy of a
// selector of s's structure, takes s's weights in place and is returned, with
// its activation buffers and its noise stream, which a forward-only copy never
// draws from. A nil dst, or one of another structure, gets a fresh Clone.
func (s *Selector) CloneInto(dst *Selector) *Selector {
	if dst == nil {
		return s.Clone()
	}
	from, to := s.Params(), dst.Params()
	if len(from) != len(to) {
		return s.Clone()
	}
	for i, p := range from {
		if !p.W.SameShape(to[i].W) {
			return s.Clone()
		}
	}
	for i, p := range from {
		copy(to[i].W.Data, p.W.Data)
	}
	dst.NoiseStd = s.NoiseStd
	return dst
}

// release ends a bout on the selector in place: its activation caches go,
// their arrays back in the arena, and it keeps its weights and noise stream.
func (s *Selector) release() {
	for _, p := range s.probs {
		tensor.Release(p)
	}
	s.h, s.flat, s.logits, s.probs, s.rows = nil, nil, nil, nil, nil
	nn.ReleaseBuffers(s.Embed)
	for _, h := range s.Heads {
		nn.ReleaseBuffers(h)
	}
}

// Forward runs the compact sub-model. Selector probabilities are computed at
// full module width, restricted to the present modules, and renormalized by
// the module layer's top-k machinery.
func (s *SubModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	probs := s.Selector.Forward(x, false) // selector is frozen on the edge
	h := s.Stem.Forward(x, train)
	for l, layer := range s.Layers {
		h = layer.Forward(h, s.compactGates(l, probs[l]), s.TopK, nil, train)
	}
	return s.Head.Forward(h, train)
}

// compactGates builds layer l's gate rows: the probability of each present
// module under the full selector distribution.
func (s *SubModel) compactGates(l int, probs [][]float32) [][]float32 {
	batch, n := len(probs), s.Layers[l].N()
	if cap(s.gateFlat) < batch*n {
		s.gateFlat = make([]float32, batch*n)
	}
	if cap(s.gateRows) < batch {
		s.gateRows = make([][]float32, batch)
	}
	rows := s.gateRows[:batch]
	for b := range rows {
		row := s.gateFlat[b*n : (b+1)*n]
		for j, orig := range s.Mapping[l] {
			row[j] = probs[b][orig]
		}
		rows[b] = row
	}
	return rows
}

// Backward propagates through head, modules and stem, accumulating their
// gradients, and returns the stem's input gradient. The selector receives no
// gradient on the edge (it is updated only on the cloud), matching the
// paper's division of labor.
func (s *SubModel) Backward(dLogits *tensor.Tensor) *tensor.Tensor {
	g := s.Head.Backward(dLogits)
	for l := len(s.Layers) - 1; l >= 0; l-- {
		g, _ = s.Layers[l].backward(g, false)
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

// Backbone is a sub-model's backbone as the lists its wire vector walks:
// Params (stem, selected modules, head: SubModel.Params) and States (the
// stem's and the head's). A caller that walks one sub-model several times —
// a device round: refresh, train, push — takes it once and hands it to each
// walk. It lists the layers the sub-model had when it was taken, so it is
// not kept across anything that replaces them.
type Backbone struct {
	Params []*nn.Param
	States []*tensor.Tensor
}

// Backbone lists s's backbone tensors.
func (s *SubModel) Backbone() Backbone {
	return Backbone{Params: s.Params(), States: s.backboneStates()}
}

// Bytes returns the backbone's wire size (SubModel.BackboneBytes).
func (b Backbone) Bytes() int64 { return nn.BytesOf(b.Params, b.States) }

// AppendVector appends the backbone vector to dst
// (SubModel.AppendBackboneVector).
func (b Backbone) AppendVector(dst []float32) []float32 {
	return nn.AppendVector(dst, b.Params, b.States)
}

// LoadVector restores the backbone from a backbone vector
// (SubModel.LoadBackboneVector).
func (b Backbone) LoadVector(v []float32) { nn.LoadVector(v, b.Params, b.States) }

// BackboneBytes returns the wire size of the stem + selected modules + head
// (parameters and states) — what a sub-model refresh transfers.
func (s *SubModel) BackboneBytes() int64 { return s.Backbone().Bytes() }

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

// AppendBackboneVector is BackboneVector appending to dst.
func (s *SubModel) AppendBackboneVector(dst []float32) []float32 {
	return s.Backbone().AppendVector(dst)
}

// LoadBackboneVector restores a vector produced by BackboneVector on a
// sub-model with the identical active-module architecture.
func (s *SubModel) LoadBackboneVector(v []float32) { s.Backbone().LoadVector(v) }

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

// ExecutedFlops estimates the per-sample forward FLOPs of s when layer l runs
// only its compact modules keep[l] (keep == nil: every module): stem, plus
// the kept modules' average cost × min(TopK, kept) per layer, plus head. It
// is the cost Scheduler ranks its rungs by and Fig. 9 times a sub-model at.
func (s *SubModel) ExecutedFlops(keep [][]int) int {
	in := 1
	for _, d := range s.InShape {
		in *= d
	}
	total, cur := 0, in
	if c, ok := s.Stem.(nn.Coster); ok {
		f, out := c.Cost(cur)
		total += f
		cur = out
	}
	for l, layer := range s.Layers {
		n := layer.N()
		if keep != nil {
			n = len(keep[l])
		}
		sum, next := 0, cur
		for i := 0; i < n; i++ {
			j := i
			if keep != nil {
				j = keep[l][i]
			}
			if c, ok := layer.Modules[j].(nn.Coster); ok {
				f, out := c.Cost(cur)
				sum += f
				if out > 0 {
					next = out
				}
			}
		}
		if n > 0 {
			total += sum / n * min(s.TopK, n)
		}
		cur = next
	}
	if c, ok := s.Head.(nn.Coster); ok {
		f, _ := c.Cost(cur)
		total += f
	}
	return total
}
