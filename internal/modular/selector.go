package modular

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Selector is the unified module selector (Section 4.2): a small embedding
// network over the raw input followed by one linear gating head per module
// layer. It makes the routing decision for all layers at once and runs
// independently of the big model, so edge devices can score module
// importance locally without executing the cloud model.
type Selector struct {
	Embed *nn.Sequential // input → feature h
	Heads []*nn.Dense    // per layer: h → N(l) logits

	// NoiseStd adds Gaussian logit noise during training (noisy top-k of
	// Shazeer et al.) so that near-tied modules all receive gradient signal.
	NoiseStd float32
	rng      *tensor.RNG

	// caches
	h      *tensor.Tensor   // embedding output
	flat   *tensor.Tensor   // [batch, inFlat] view of an input of higher rank
	logits []*tensor.Tensor // per layer [batch, N(l)]
	// probs are the per-layer softmax'd probabilities, held under the reuse
	// contract of nn/reuse.go; rows are their per-sample windows, which is
	// what Forward returns (valid until the next Forward).
	probs []*tensor.Tensor
	rows  [][][]float32
}

// NewSelector builds a selector with the given flattened input size,
// embedding width and per-layer module counts.
func NewSelector(rng *tensor.RNG, inFlat, embedDim int, layerSizes []int) *Selector {
	s := &Selector{
		Embed: nn.NewSequential(
			nn.NewDense(rng, inFlat, embedDim),
			nn.NewReLU(),
			nn.NewDense(rng, embedDim, embedDim),
			nn.NewReLU(),
		),
		NoiseStd: 0.3,
		rng:      rng.Split(),
	}
	for _, n := range layerSizes {
		s.Heads = append(s.Heads, nn.NewDense(rng, embedDim, n))
	}
	return s
}

// Params returns embedding plus head parameters.
func (s *Selector) Params() []*nn.Param {
	ps := s.Embed.Params()
	for _, h := range s.Heads {
		ps = append(ps, h.Params()...)
	}
	return ps
}

// Forward computes per-layer gate probabilities for a batch. x is the raw
// model input; it is flattened internally. In training mode Gaussian noise
// perturbs logits before the softmax.
func (s *Selector) Forward(x *tensor.Tensor, train bool) [][]([]float32) {
	flat := x
	if x.Rank() != 2 {
		s.flat = tensor.FromSliceInto(s.flat, x.Data, x.Dim(0), x.Len()/x.Dim(0))
		flat = s.flat
	}
	s.h = s.Embed.Forward(flat, train)
	batch := flat.Dim(0)
	if len(s.probs) != len(s.Heads) {
		s.logits = make([]*tensor.Tensor, len(s.Heads))
		s.probs = make([]*tensor.Tensor, len(s.Heads))
		s.rows = make([][][]float32, len(s.Heads))
	}
	for l, head := range s.Heads {
		z := head.Forward(s.h, train)
		if train && s.NoiseStd > 0 {
			for i := range z.Data {
				z.Data[i] += float32(s.NoiseStd * float32(s.rng.NormFloat64()))
			}
		}
		s.logits[l] = z
		p := tensor.Refit(s.probs[l], batch, z.Dim(1))
		s.probs[l] = p
		if cap(s.rows[l]) < batch {
			s.rows[l] = make([][]float32, batch)
		}
		rows := s.rows[l][:batch]
		for b := range rows {
			tensor.Softmax(p.Row(b), z.Row(b))
			rows[b] = p.Row(b)
		}
		s.rows[l] = rows
	}
	return s.rows
}

// Backward takes per-layer gradients w.r.t. the PROBABILITIES (as produced
// by ModuleLayer.Backward plus any auxiliary losses) and backpropagates
// through softmax, heads and embedding, accumulating parameter gradients.
func (s *Selector) Backward(dProbs []*tensor.Tensor) {
	var dh *tensor.Tensor
	for l, head := range s.Heads {
		p := s.probs[l]
		dp := dProbs[l]
		batch, n := p.Dim(0), p.Dim(1)
		dz := tensor.New(batch, n)
		for b := 0; b < batch; b++ {
			prow := p.Row(b)
			dprow := dp.Row(b)
			var dot float64
			for i := 0; i < n; i++ {
				dot += float64(float64(prow[i]) * float64(dprow[i]))
			}
			dzrow := dz.Row(b)
			for i := 0; i < n; i++ {
				dzrow[i] = prow[i] * (dprow[i] - float32(dot))
			}
		}
		g := head.Backward(dz)
		if dh == nil {
			dh = g
		} else {
			dh.Add(g)
		}
	}
	if dh != nil {
		s.Embed.Backward(dh)
	}
}

// BackwardLogits is like Backward but takes gradients w.r.t. the logits
// directly (used by the KL guidance term, whose softmax gradient is computed
// in closed form).
func (s *Selector) BackwardLogits(dLogits []*tensor.Tensor) {
	var dh *tensor.Tensor
	for l, head := range s.Heads {
		g := head.Backward(dLogits[l])
		if dh == nil {
			dh = g
		} else {
			dh.Add(g)
		}
	}
	if dh != nil {
		s.Embed.Backward(dh)
	}
}

// GateGradToProbGrad converts ModuleLayer gate gradients (over renormalized
// top-k gates) into gradients w.r.t. the full probability vector. For
// selected modules A with s = Σ_{j∈A} p_j and g_j = p_j/s:
// dL/dp_i = (dL/dg_i − Σ_j dL/dg_j·g_j)/s for i∈A, 0 otherwise.
func GateGradToProbGrad(gateGrads [][]float32, selIdx [][]int, selGate [][]float32, probs *tensor.Tensor) *tensor.Tensor {
	batch, n := probs.Dim(0), probs.Dim(1)
	dp := tensor.New(batch, n)
	for b := 0; b < batch; b++ {
		idx := selIdx[b]
		gates := selGate[b]
		prow := probs.Row(b)
		var sum float32
		for _, i := range idx {
			sum += prow[i]
		}
		if sum <= 1e-12 {
			continue
		}
		var mix float64
		for j, i := range idx {
			mix += float64(float64(gateGrads[b][i]) * float64(gates[j]))
		}
		dprow := dp.Row(b)
		for _, i := range idx {
			dprow[i] = (gateGrads[b][i] - float32(mix)) / sum
		}
	}
	return dp
}

// SelGates exposes a module layer's cached selection for gradient routing:
// the layer's own tables, valid until its next Forward.
func (ml *ModuleLayer) SelGates() (idx [][]int, gates [][]float32) {
	batch := ml.inShape[0]
	return ml.selIdx[:batch], ml.selGate[:batch]
}

// LoadBalanceLoss computes the squared coefficient of variation of the
// per-module importance (Σ_batch p) for one layer and ADDS its gradient,
// scaled by weight, into dp. Minimizing CV² pushes the selector to use all
// modules evenly, the paper's load-balancing term.
func LoadBalanceLoss(probs *tensor.Tensor, dp *tensor.Tensor, weight float32) float64 {
	batch, n := probs.Dim(0), probs.Dim(1)
	imp := make([]float64, n)
	for b := 0; b < batch; b++ {
		row := probs.Row(b)
		for i := 0; i < n; i++ {
			imp[i] += float64(row[i])
		}
	}
	var s1, s2 float64
	for _, v := range imp {
		s1 += v
		s2 += float64(v * v)
	}
	if s1 <= 0 {
		return 0
	}
	nf := float64(n)
	loss := nf*s2/(s1*s1) - 1
	// dLoss/dimp_i = 2n(imp_i·s1 − s2)/s1³; dimp_i/dp[b,i] = 1.
	for i := 0; i < n; i++ {
		g := float32(weight * float32(2*nf*(float64(imp[i]*s1)-s2)/(s1*s1*s1)))
		for b := 0; b < batch; b++ {
			dp.Row(b)[i] += g
		}
	}
	return loss
}
