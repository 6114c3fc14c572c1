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
type ModuleLayer struct {
	Modules []nn.Layer

	// caches between Forward and Backward
	routes    [][]int          // per module: routed sample indices
	gateCache [][]float32      // per module: renormalized gate per routed sample
	outputs   []*tensor.Tensor // per module: sub-batch outputs
	inShape   []int
	batch     int
	selIdx    [][]int     // per sample: selected module indices
	selGate   [][]float32 // per sample: renormalized gates (aligned with selIdx)
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

// Forward routes each sample through its top-k modules and combines module
// outputs with renormalized gate weights: y_b = Σ_{i∈A_b} g_i(b)·f_i(x_b).
// probs is the selector's per-sample distribution over this layer's modules
// ([batch][N]); topK bounds |A_b|. active restricts the usable module set
// (sub-models pass their selection; nil means all).
func (ml *ModuleLayer) Forward(x *tensor.Tensor, probs [][]float32, topK int, active []int, train bool) *tensor.Tensor {
	batch := x.Dim(0)
	n := len(ml.Modules)
	ml.batch = batch
	ml.inShape = x.Shape()
	ml.selIdx = make([][]int, batch)
	ml.selGate = make([][]float32, batch)
	ml.routes = make([][]int, n)
	ml.gateCache = make([][]float32, n)
	ml.outputs = make([]*tensor.Tensor, n)

	usable := active
	if usable == nil {
		usable = make([]int, n)
		for i := range usable {
			usable[i] = i
		}
	}
	// Per-sample top-k over the usable modules, gates renormalized over the
	// selection.
	for b := 0; b < batch; b++ {
		p := probs[b]
		if len(p) != n {
			panic(fmt.Sprintf("modular: gate width %d, want %d", len(p), n))
		}
		restricted := make([]float32, len(usable))
		for j, i := range usable {
			restricted[j] = p[i]
		}
		k := topK
		if k > len(usable) {
			k = len(usable)
		}
		top := tensor.TopK(restricted, k)
		idx := make([]int, len(top))
		gates := make([]float32, len(top))
		var sum float32
		for j, r := range top {
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
		ml.selIdx[b] = idx
		ml.selGate[b] = gates
		for j, i := range idx {
			ml.routes[i] = append(ml.routes[i], b)
			ml.gateCache[i] = append(ml.gateCache[i], gates[j])
		}
	}

	// Dispatch: run each module on its routed sub-batch; modules execute in
	// parallel (the MoE execution model).
	sampleLen := x.Len() / batch
	tensor.ParallelForAtomic(n, func(i int) {
		if len(ml.routes[i]) == 0 {
			return
		}
		sub := gatherRows(x, ml.routes[i], sampleLen)
		ml.outputs[i] = ml.Modules[i].Forward(sub, train)
	})

	// Combine: y_b = Σ g_i(b) · f_i(x_b).
	var y *tensor.Tensor
	for i := 0; i < n; i++ {
		if ml.outputs[i] == nil {
			continue
		}
		if y == nil {
			shape := append([]int{batch}, ml.outputs[i].Shape()[1:]...)
			y = tensor.New(shape...)
		}
		outLen := ml.outputs[i].Len() / len(ml.routes[i])
		for j, b := range ml.routes[i] {
			g := ml.gateCache[i][j]
			src := ml.outputs[i].Data[j*outLen : (j+1)*outLen]
			dst := y.Data[b*outLen : (b+1)*outLen]
			tensor.Axpy(g, src, dst)
		}
	}
	if y == nil {
		panic("modular: no module produced output (empty layer?)")
	}
	return y
}

// Backward propagates dy through the activated modules. It returns the input
// gradient and the per-sample gate gradients dL/dg over ALL modules (zero for
// inactive ones) for the selector's backward pass.
func (ml *ModuleLayer) Backward(dy *tensor.Tensor) (*tensor.Tensor, [][]float32) {
	n := len(ml.Modules)
	batch := ml.batch
	dx := tensor.New(ml.inShape...)
	gateGrads := make([][]float32, batch)
	for b := range gateGrads {
		gateGrads[b] = make([]float32, n)
	}
	sampleLen := dx.Len() / batch
	outLen := dy.Len() / batch

	// A sample routed to k modules receives k input-gradient contributions.
	// Summing them as modules finish would make dx depend on scheduling
	// (float addition is not associative), so the parallel phase only stages
	// each module's dsub; the reduction below runs in ascending module order —
	// the same order the serial path produces, keeping dx bitwise stable for
	// any Parallelism. dsub tensors are module-owned and stay valid until
	// that module's next Backward, so staging holds references, not copies.
	dsubs := make([]*tensor.Tensor, n)
	tensor.ParallelForAtomic(n, func(i int) {
		if len(ml.routes[i]) == 0 {
			return
		}
		rows := ml.routes[i]
		// dL/df_i = g_i ⊙ dy on routed rows; dL/dg_i = <f_i, dy>.
		sub := tensor.New(append([]int{len(rows)}, dy.Shape()[1:]...)...)
		//nolint:hotalloc -- routed sub-batch sizes vary per step and per module; a float64 accumulator this small is not worth an arena class
		localGateGrad := make([]float64, len(rows))
		for j, b := range rows {
			g := ml.gateCache[i][j]
			dyRow := dy.Data[b*outLen : (b+1)*outLen]
			outRow := ml.outputs[i].Data[j*outLen : (j+1)*outLen]
			dst := sub.Data[j*outLen : (j+1)*outLen]
			for e, v := range dyRow {
				dst[e] = g * v
			}
			localGateGrad[j] = tensor.Dot(outRow, dyRow)
		}
		for j, b := range rows {
			gateGrads[b][i] = float32(localGateGrad[j]) // (b,i) slots are disjoint across workers
		}
		dsubs[i] = ml.Modules[i].Backward(sub)
	})
	for i := 0; i < n; i++ {
		if dsubs[i] == nil {
			continue
		}
		for j, b := range ml.routes[i] {
			src := dsubs[i].Data[j*sampleLen : (j+1)*sampleLen]
			dst := dx.Data[b*sampleLen : (b+1)*sampleLen]
			tensor.Axpy(1, src, dst)
		}
	}
	return dx, gateGrads
}

// gatherRows assembles the samples at rows into a new contiguous batch.
func gatherRows(x *tensor.Tensor, rows []int, sampleLen int) *tensor.Tensor {
	shape := append([]int{len(rows)}, x.Shape()[1:]...)
	sub := tensor.New(shape...)
	for j, b := range rows {
		copy(sub.Data[j*sampleLen:(j+1)*sampleLen], x.Data[b*sampleLen:(b+1)*sampleLen])
	}
	return sub
}
