package modular

import (
	"fmt"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Model is a modularized cloud model: stem → L module layers → head, with a
// unified selector making routing decisions for all layers at once.
type Model struct {
	Stem     nn.Layer
	Layers   []*ModuleLayer
	Head     nn.Layer
	Selector *Selector

	InShape []int // per-sample input shape
	TopK    int   // modules activated per layer per sample

	// caches
	lastProbs [][]([]float32)
	// costs is the table ModuleCosts walked for the input geometry the
	// layers hold now: built on first use, read by concurrent Derive calls,
	// dropped by Forward, the one path that records a new geometry.
	costs atomic.Pointer[moduleCosts]
}

// moduleCosts is what ModuleCosts walks: the static costs of stem, head and
// each module, and each module's knapsack cost vector for Derive (bytes,
// forward FLOPs, training memory), flat in layer order.
type moduleCosts struct {
	stem, head device.ModelCost
	modules    [][]device.ModelCost
	items      [][]float64
}

// InFlat returns the flattened per-sample input size.
func (m *Model) InFlat() int {
	n := 1
	for _, d := range m.InShape {
		n *= d
	}
	return n
}

// LayerSizes returns the module count per layer.
func (m *Model) LayerSizes() []int {
	out := make([]int, len(m.Layers))
	for i, l := range m.Layers {
		out[i] = l.N()
	}
	return out
}

// Params returns every trainable parameter: stem, modules, head, selector.
func (m *Model) Params() []*nn.Param {
	ps := m.Stem.Params()
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	ps = append(ps, m.Head.Params()...)
	ps = append(ps, m.Selector.Params()...)
	return ps
}

// BackboneParams returns stem + module + head parameters (no selector).
func (m *Model) BackboneParams() []*nn.Param {
	ps := m.Stem.Params()
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return append(ps, m.Head.Params()...)
}

// States returns every running-state tensor — the stem's, each module's in
// layer order, the head's — in the order a checkpoint stores them.
func (m *Model) States() []*tensor.Tensor {
	st := nn.LayerStates(m.Stem)
	for _, l := range m.Layers {
		for _, mod := range l.Modules {
			st = append(st, nn.LayerStates(mod)...)
		}
	}
	return append(st, nn.LayerStates(m.Head)...)
}

// Forward runs the full modularized model. active optionally restricts each
// layer's usable modules (nil = all; sub-models pass their selection).
func (m *Model) Forward(x *tensor.Tensor, active [][]int, train bool) *tensor.Tensor {
	m.costs.Store(nil) // the layers record this input's geometry
	probs := m.Selector.Forward(x, train)
	m.lastProbs = probs
	h := m.Stem.Forward(x, train)
	for l, layer := range m.Layers {
		var act []int
		if active != nil {
			act = active[l]
		}
		h = layer.Forward(h, probs[l], m.TopK, act, train)
	}
	return m.Head.Forward(h, train)
}

// Backward propagates the loss gradient through head, module layers, stem
// and selector, accumulating all parameter gradients. lbWeight adds the
// load-balancing term to the selector gradient (0 disables it).
func (m *Model) Backward(dLogits *tensor.Tensor, lbWeight float32) (lbLoss float64) {
	g := m.Head.Backward(dLogits)
	dProbs := make([]*tensor.Tensor, len(m.Layers))
	for l := len(m.Layers) - 1; l >= 0; l-- {
		var gateGrads [][]float32
		g, gateGrads = m.Layers[l].Backward(g)
		idx, gates := m.Layers[l].SelGates()
		dProbs[l] = GateGradToProbGrad(gateGrads, idx, gates, m.Selector.probs[l])
	}
	m.Stem.Backward(g)
	if lbWeight > 0 {
		for l := range m.Layers {
			lbLoss += LoadBalanceLoss(m.Selector.probs[l], dProbs[l], lbWeight)
		}
	}
	m.Selector.Backward(dProbs)
	return lbLoss
}

// Importance computes per-layer module importance for a dataset-like batch:
// the mean selector probability over samples (Section 5.1's importance
// metric). The model itself is not executed — only the lightweight selector.
func (m *Model) Importance(x *tensor.Tensor) [][]float64 {
	return m.ImportanceWith(m.Selector, x)
}

// ImportanceWith is Importance evaluated through a caller-owned selector copy
// (see Selector.Clone). Selector.Forward mutates the selector's activation
// caches, so concurrent per-device importance probes must each bring their
// own copy; the model is only read here.
func (m *Model) ImportanceWith(sel *Selector, x *tensor.Tensor) [][]float64 {
	probs := sel.Forward(x, false)
	batch := x.Dim(0)
	out := make([][]float64, len(m.Layers))
	for l := range m.Layers {
		imp := make([]float64, m.Layers[l].N())
		for b := 0; b < batch; b++ {
			for i, p := range probs[l][b] {
				imp[i] += float64(p)
			}
		}
		for i := range imp {
			imp[i] /= float64(batch)
		}
		out[l] = imp
	}
	return out
}

// probeSamples caps the local samples an importance probe reads.
const probeSamples = 64

// Probe is ImportanceWith over the first (at most 64) samples of a device's
// local data: the probe a device runs before each sub-model fetch.
func (m *Model) Probe(sel *Selector, local *data.Dataset) [][]float64 {
	idx := make([]int, min(local.Len(), probeSamples))
	for i := range idx {
		idx[i] = i
	}
	x, _ := local.BatchInto(nil, nil, idx)
	defer tensor.Release(x)
	return m.ImportanceWith(sel, x)
}

// ModuleCosts returns per-layer, per-module static resource costs. The input
// element count per sample is threaded through stem and layers using the
// cost interfaces. Module layers report the cost of each module in
// isolation; a sub-model's cost is the sum over its chosen modules (plus
// stem and head, which every sub-model carries). The costs depend only on
// the architecture and the input geometry the layers recorded, so they are
// walked once per geometry and held: modules is shared by every caller, who
// only reads it.
func (m *Model) ModuleCosts() (stem, head device.ModelCost, modules [][]device.ModelCost) {
	c := m.heldCosts()
	return c.stem, c.head, c.modules
}

// heldCosts returns the held cost table, walking it first if Forward dropped
// it or nothing built it yet. Concurrent first calls each walk the same
// geometry and store equal tables.
func (m *Model) heldCosts() *moduleCosts {
	if c := m.costs.Load(); c != nil {
		return c
	}
	c := m.walkCosts()
	m.costs.Store(c)
	return c
}

// walkCosts computes the cost table from the layers.
func (m *Model) walkCosts() *moduleCosts {
	inElems := m.InFlat()
	c := &moduleCosts{stem: device.CostOf(m.Stem, inElems)}
	_, cur := nn.ForwardCost(m.Stem, inElems)
	c.modules = make([][]device.ModelCost, len(m.Layers))
	for l, layer := range m.Layers {
		c.modules[l] = make([]device.ModelCost, layer.N())
		next := cur
		for i, mod := range layer.Modules {
			mc := device.CostOf(mod, cur)
			c.modules[l][i] = mc
			c.items = append(c.items, []float64{float64(mc.Bytes), float64(mc.FwdFLOPs), float64(mc.TrainMemEl)})
			if _, out := nn.ForwardCost(mod, cur); out > 0 {
				next = out
			}
		}
		cur = next
	}
	c.head = device.CostOf(m.Head, cur)
	return c
}

// Validate panics if the model is structurally inconsistent (selector head
// widths vs module counts). Builders call it before returning.
func (m *Model) Validate() {
	if len(m.Selector.Heads) != len(m.Layers) {
		panic(fmt.Sprintf("modular: %d selector heads for %d layers", len(m.Selector.Heads), len(m.Layers)))
	}
	for l, layer := range m.Layers {
		if m.Selector.Heads[l].Out != layer.N() {
			panic(fmt.Sprintf("modular: head %d width %d, layer has %d modules", l, m.Selector.Heads[l].Out, layer.N()))
		}
	}
	if m.TopK < 1 {
		panic("modular: TopK must be ≥ 1")
	}
}
