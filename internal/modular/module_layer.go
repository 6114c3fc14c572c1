// Package modular implements the paper's core contribution: block-level
// model modularization (Section 4.1), the unified module selector (4.2),
// end-to-end and module ability-enhancing training (4.3), personalized
// sub-model derivation (5.1) and module-wise sub-model aggregation (5.2).
//
// A modularized model is stem → module layers → head. Each module layer
// holds N substitutable modules; per sample, the unified selector activates
// the top-k modules and the layer output is the gate-weighted sum of the
// activated modules' outputs.
package modular

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// ModuleLayer is one decomposed block: a set of substitutable modules with
// matching input/output shapes. Gates are supplied externally by the unified
// selector (the layer itself holds no routing parameters).
//
// Forward and Backward allocate nothing in steady state. The output, the
// input gradient and the routing tables follow the reuse contract of
// nn/reuse.go: layer-held, sized for the largest (module count, batch, k) seen
// so far, valid until the layer's next Forward/Backward. The per-module
// gathered input rows and gate-scaled dy rows are step-scoped instead: they
// are borrowed from the arena when a module is dispatched and go back after
// Backward's reduction (or at the end of an inference Forward), so what a
// routed layer retains between steps does not grow with its module count.
type ModuleLayer struct {
	Modules []nn.Layer

	// Routing of the last Forward. routes and gateCache are per module (the
	// routed sample indices and each one's renormalized gate), selIdx and
	// selGate per sample (the selected modules and their gates); all are
	// windows into the flat arrays below.
	routes    [][]int
	gateCache [][]float32
	selIdx    [][]int
	selGate   [][]float32
	gateGrads [][]float32 // per sample: dL/dgate over all modules, Backward's second result

	capBatch, capK int // what the tables are sized for, beside len(routes) modules
	routeFlat      []int
	gateFlat       []float32
	selIdxFlat     []int
	selGateFlat    []float32
	gateGradFlat   []float32
	usable         []int     // 0..N-1, the selection when the caller restricts nothing
	restricted     []float32 // one sample's gates over the usable modules
	top            []int     // one sample's top-k positions within restricted

	inputs  []*tensor.Tensor // per module: gathered input rows (borrowed, step-scoped)
	outputs []*tensor.Tensor // per module: sub-batch output (the module's own buffer)
	scaled  []*tensor.Tensor // per module: gate-scaled dy rows (borrowed, step-scoped)
	dsubs   []*tensor.Tensor // per module: sub-batch input gradient (the module's own buffer)
	inShape []int
	y, dx   *tensor.Tensor

	// armed: a Forward(train=true) holds its routed inputs for the Backward
	// that has not run yet.
	armed bool

	// Per-call state read by the dispatch bodies, which are built once:
	// closures handed to the parallel kernels escape, so a literal per call
	// would be a steady-state heap allocation.
	x, dy            *tensor.Tensor
	train, wantGates bool
	fwdBody, bwdBody func(i int)
}

// NewModuleLayer wraps modules into a layer.
func NewModuleLayer(modules ...nn.Layer) *ModuleLayer {
	return &ModuleLayer{Modules: modules}
}

// N returns the module count.
func (ml *ModuleLayer) N() int { return len(ml.Modules) }

// Params returns all modules' parameters.
func (ml *ModuleLayer) Params() []*nn.Param {
	var ps []*nn.Param
	for _, m := range ml.Modules {
		ps = append(ps, m.Params()...)
	}
	return ps
}

// release ends a bout on a routed layer, in place: every tensor the layer
// and its modules hold goes back to the arena (nn.ReleaseBuffers for each
// module). The routing tables stay: index arrays of a few KB that hold no
// activations and that the next bout would size identically.
func (ml *ModuleLayer) release() {
	ml.releaseStep()
	tensor.Release(ml.y)
	tensor.Release(ml.dx)
	ml.y, ml.dx = nil, nil
	for _, m := range ml.Modules {
		nn.ReleaseBuffers(m)
	}
}

// releaseStep returns the step-scoped rows to the arena. A bypass module
// (nn.Identity) hands its input back as its output, so outputs and dsubs may
// alias these rows: nothing may call this before the combine (Forward) or the
// reduction (Backward) has read them.
func (ml *ModuleLayer) releaseStep() {
	for i := range ml.inputs {
		tensor.Release(ml.inputs[i])
		tensor.Release(ml.scaled[i])
		ml.inputs[i], ml.scaled[i], ml.outputs[i], ml.dsubs[i] = nil, nil, nil, nil
	}
	ml.armed = false
}

// sizeTables makes the routing tables fit n modules, batch samples and k
// selections per sample — allocating only on first use, when the module count
// changed (Modules is an exported slice) or when batch or k outgrew them — and
// clears the per-module routes.
func (ml *ModuleLayer) sizeTables(n, batch, k int) {
	if n != len(ml.routes) || batch > ml.capBatch || k > ml.capK {
		cb, ck := max(batch, ml.capBatch), max(k, ml.capK)
		ml.capBatch, ml.capK = cb, ck
		ml.routeFlat = make([]int, n*cb)
		ml.gateFlat = make([]float32, n*cb)
		ml.selIdxFlat = make([]int, cb*ck)
		ml.selGateFlat = make([]float32, cb*ck)
		ml.gateGradFlat = make([]float32, cb*n)
		ml.routes = make([][]int, n)
		ml.gateCache = make([][]float32, n)
		ml.selIdx = make([][]int, cb)
		ml.selGate = make([][]float32, cb)
		ml.gateGrads = make([][]float32, cb)
		for b := range ml.gateGrads {
			ml.gateGrads[b] = ml.gateGradFlat[b*n : (b+1)*n]
		}
		ml.usable = make([]int, n)
		for i := range ml.usable {
			ml.usable[i] = i
		}
		ml.restricted = make([]float32, n)
		ml.top = make([]int, ck)
		ml.inputs = make([]*tensor.Tensor, n)
		ml.outputs = make([]*tensor.Tensor, n)
		ml.scaled = make([]*tensor.Tensor, n)
		ml.dsubs = make([]*tensor.Tensor, n)
	}
	cb, ck := ml.capBatch, ml.capK
	for i := range ml.routes {
		ml.routes[i] = ml.routeFlat[i*cb : i*cb : (i+1)*cb]
		ml.gateCache[i] = ml.gateFlat[i*cb : i*cb : (i+1)*cb]
	}
	for b := 0; b < batch; b++ {
		ml.selIdx[b] = ml.selIdxFlat[b*ck : b*ck+k]
		ml.selGate[b] = ml.selGateFlat[b*ck : b*ck+k]
	}
}

// rowsLike refits t — borrows, when t is nil — to hold rows samples of like's
// per-sample shape.
func rowsLike(t *tensor.Tensor, rows int, like *tensor.Tensor) *tensor.Tensor {
	var buf [8]int
	shape := append(append(buf[:0], rows), like.Shape()[1:]...)
	return tensor.Refit(t, shape...)
}

// Forward routes each sample through its top-k modules and combines module
// outputs with renormalized gate weights: y_b = Σ_{i∈A_b} g_i(b)·f_i(x_b).
// probs is the selector's per-sample distribution over this layer's modules
// ([batch][N]); topK bounds |A_b|. active restricts the usable module set
// (sub-models pass their selection; nil means all).
func (ml *ModuleLayer) Forward(x *tensor.Tensor, probs [][]float32, topK int, active []int, train bool) *tensor.Tensor {
	batch := x.Dim(0)
	n := len(ml.Modules)
	ml.releaseStep() // a training Forward whose Backward never came
	ml.inShape = append(ml.inShape[:0], x.Shape()...)

	k := min(topK, n)
	if active != nil {
		k = min(topK, len(active))
	}
	ml.sizeTables(n, batch, k)
	usable := active
	if usable == nil {
		usable = ml.usable
	}
	// Per-sample top-k over the usable modules, gates renormalized over the
	// selection.
	for b := 0; b < batch; b++ {
		p := probs[b]
		if len(p) != n {
			panic(fmt.Sprintf("modular: gate width %d, want %d", len(p), n))
		}
		restricted := ml.restricted[:len(usable)]
		for j, i := range usable {
			restricted[j] = p[i]
		}
		idx, gates := ml.selIdx[b], ml.selGate[b]
		var sum float32
		for j, r := range tensor.TopKInto(ml.top, restricted, k) {
			idx[j] = usable[r]
			gates[j] = p[usable[r]]
			sum += gates[j]
		}
		if sum <= 1e-12 {
			// Degenerate gates: fall back to uniform over the selection.
			for j := range gates {
				gates[j] = 1 / float32(len(gates))
			}
		} else {
			for j := range gates {
				gates[j] /= sum
			}
		}
		for j, i := range idx {
			ml.routes[i] = append(ml.routes[i], b)
			ml.gateCache[i] = append(ml.gateCache[i], gates[j])
		}
	}

	// Dispatch: run each module on its routed sub-batch; modules execute in
	// parallel (the MoE execution model).
	if ml.fwdBody == nil {
		ml.fwdBody = func(i int) {
			rows := ml.routes[i]
			if len(rows) == 0 {
				return
			}
			x := ml.x
			sampleLen := x.Len() / x.Dim(0)
			sub := rowsLike(nil, len(rows), x)
			for j, b := range rows {
				copy(sub.Data[j*sampleLen:(j+1)*sampleLen], x.Data[b*sampleLen:(b+1)*sampleLen])
			}
			ml.inputs[i] = sub
			ml.outputs[i] = ml.Modules[i].Forward(sub, ml.train)
		}
	}
	ml.x, ml.train = x, train
	tensor.ParallelFor(n, ml.fwdBody)
	ml.x = nil

	// Combine in ascending module order: y_b = Σ g_i(b) · f_i(x_b).
	combined := false
	for i, out := range ml.outputs {
		if out == nil {
			continue
		}
		if !combined {
			ml.y = rowsLike(ml.y, batch, out)
			ml.y.Zero()
			combined = true
		}
		outLen := out.Len() / len(ml.routes[i])
		for j, b := range ml.routes[i] {
			tensor.Axpy(ml.gateCache[i][j], out.Data[j*outLen:(j+1)*outLen], ml.y.Data[b*outLen:(b+1)*outLen])
		}
	}
	if !combined {
		panic("modular: no module produced output (empty layer?)")
	}
	if train {
		ml.armed = true
	} else {
		ml.releaseStep()
	}
	return ml.y
}

// Backward propagates dy through the activated modules. It returns the input
// gradient and the per-sample gate gradients dL/dg over ALL modules (zero for
// inactive ones) for the selector's backward pass; both are the layer's own
// buffers. It consumes the preceding Forward(train=true): its routed inputs
// go back to the arena, so calling it again before the next training Forward
// panics.
func (ml *ModuleLayer) Backward(dy *tensor.Tensor) (*tensor.Tensor, [][]float32) {
	return ml.backward(dy, true)
}

// backward is Backward; without wantGates it skips the gate gradients — a dot
// product per routed row — and returns nil for them. The edge takes that path:
// a sub-model's selector is frozen (SubModel.Backward).
func (ml *ModuleLayer) backward(dy *tensor.Tensor, wantGates bool) (*tensor.Tensor, [][]float32) {
	if !ml.armed {
		panic("modular: ModuleLayer.Backward without an unconsumed Forward(train=true): a step's routed inputs are returned to the arena by its first Backward")
	}
	n := len(ml.Modules)
	batch := ml.inShape[0]
	ml.dx = tensor.Refit(ml.dx, ml.inShape...)
	ml.dx.Zero() // the reduction below accumulates
	dx := ml.dx
	var gateGrads [][]float32
	if wantGates {
		gateGrads = ml.gateGrads[:batch]
		clear(ml.gateGradFlat[:batch*n])
	}
	sampleLen := dx.Len() / batch

	// A sample routed to k modules receives k input-gradient contributions.
	// Summing them as modules finish would make dx depend on scheduling
	// (float addition is not associative), so the parallel phase only stages
	// each module's dsub; the reduction below runs in ascending module order —
	// the same order the serial path produces, keeping dx bitwise stable for
	// any Parallelism. dsub tensors are module-owned and stay valid until
	// that module's next Backward, so staging holds references, not copies.
	if ml.bwdBody == nil {
		ml.bwdBody = func(i int) {
			rows := ml.routes[i]
			if len(rows) == 0 {
				return
			}
			dy, out := ml.dy, ml.outputs[i]
			outLen := dy.Len() / dy.Dim(0)
			// dL/df_i = g_i ⊙ dy on routed rows; dL/dg_i = <f_i, dy>.
			sub := rowsLike(nil, len(rows), dy)
			for j, b := range rows {
				g := ml.gateCache[i][j]
				dyRow := dy.Data[b*outLen : (b+1)*outLen]
				dst := sub.Data[j*outLen : (j+1)*outLen]
				for e, v := range dyRow {
					dst[e] = g * v
				}
				if ml.wantGates {
					// (b,i) slots are disjoint across workers
					ml.gateGrads[b][i] = float32(tensor.Dot(out.Data[j*outLen:(j+1)*outLen], dyRow))
				}
			}
			ml.scaled[i] = sub
			ml.dsubs[i] = ml.Modules[i].Backward(sub)
		}
	}
	ml.dy, ml.wantGates = dy, wantGates
	tensor.ParallelFor(n, ml.bwdBody)
	ml.dy = nil
	for i, dsub := range ml.dsubs {
		if dsub == nil {
			continue
		}
		for j, b := range ml.routes[i] {
			tensor.Axpy(1, dsub.Data[j*sampleLen:(j+1)*sampleLen], dx.Data[b*sampleLen:(b+1)*sampleLen])
		}
	}
	ml.releaseStep()
	return dx, gateGrads
}
