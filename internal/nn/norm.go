package nn

import (
	"math"

	"repro/internal/tensor"
)

// BatchNorm normalizes activations per feature (rank-2 input [batch, feat])
// or per channel (rank-4 input [batch, C, H, W]), with learnable scale/shift
// and running statistics for inference.
//
// Both layouts are [batch, feat, spatial] with spatial = 1 or H·W, so every
// pass is a (b, f) loop over contiguous runs of spatial elements. A feature's
// elements are met in ascending flat index, which fixes the order of every
// float64 accumulation. The output, normalized-input and input-gradient
// tensors and the per-feature accumulators are layer-owned and reused under
// the ownership contract of reuse.go; ReleaseBuffers drops them.
type BatchNorm struct {
	Feat     int
	Eps      float32
	Momentum float32 // running-stat update rate, e.g. 0.1

	Gamma *Param // [feat]
	Beta  *Param // [feat]

	RunMean *tensor.Tensor // [feat] running mean (not trained)
	RunVar  *tensor.Tensor // [feat] running variance

	// caches for backward
	xhat    *tensor.Tensor
	invStd  []float32
	perFeat int // elements per feature per batch (batch*H*W for conv)

	y  *tensor.Tensor // reused output
	dx *tensor.Tensor // reused input gradient
	// Per-feature float64 accumulators: mean and variance in Forward, dgamma
	// and dbeta in Backward.
	accA, accB []float64
}

// NewBatchNorm creates a batch normalization layer over feat features or
// channels.
func NewBatchNorm(feat int) *BatchNorm {
	bn := &BatchNorm{
		Feat:     feat,
		Eps:      1e-5,
		Momentum: 0.1,
		Gamma:    NewParam("bn.gamma", feat),
		Beta:     NewParam("bn.beta", feat),
		RunMean:  tensor.New(feat),
		RunVar:   tensor.New(feat),
	}
	bn.Gamma.W.Fill(1)
	bn.RunVar.Fill(1)
	return bn
}

// geometry returns the [batch, feat, spatial] view of x: spatial is 1 for
// rank-2 input and H·W for rank-4.
func (bn *BatchNorm) geometry(x *tensor.Tensor) (batch, feat, spatial int) {
	switch x.Rank() {
	case 2:
		return x.Dim(0), x.Dim(1), 1
	case 4:
		return x.Dim(0), x.Dim(1), x.Dim(2) * x.Dim(3)
	default:
		panic("nn: BatchNorm expects rank-2 or rank-4 input")
	}
}

// accumulators returns the two per-feature float64 accumulators, zeroed.
func (bn *BatchNorm) accumulators() (a, b []float64) {
	if len(bn.accA) != bn.Feat {
		bn.accA = make([]float64, bn.Feat)
		bn.accB = make([]float64, bn.Feat)
	}
	for f := range bn.accA {
		bn.accA[f], bn.accB[f] = 0, 0
	}
	return bn.accA, bn.accB
}

// Forward normalizes with batch statistics (training) or running statistics
// (inference).
func (bn *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	batch, feat, spatial := bn.geometry(x)
	n := batch * spatial
	if len(bn.invStd) != bn.Feat {
		bn.invStd = make([]float32, bn.Feat)
	}

	mean, variance := bn.accumulators()
	if train {
		for b := 0; b < batch; b++ {
			for f := 0; f < feat; f++ {
				sum := mean[f]
				for _, v := range x.Data[(b*feat+f)*spatial : (b*feat+f+1)*spatial] {
					sum += float64(v)
				}
				mean[f] = sum
			}
		}
		for f := range mean {
			mean[f] /= float64(n)
		}
		for b := 0; b < batch; b++ {
			for f := 0; f < feat; f++ {
				m, sum := mean[f], variance[f]
				for _, v := range x.Data[(b*feat+f)*spatial : (b*feat+f+1)*spatial] {
					d := float64(v) - m
					sum += float64(d * d)
				}
				variance[f] = sum
			}
		}
		for f := range variance {
			variance[f] /= float64(n)
		}
		for f := 0; f < bn.Feat; f++ {
			bn.RunMean.Data[f] = float32((1-bn.Momentum)*bn.RunMean.Data[f]) + float32(bn.Momentum*float32(mean[f]))
			bn.RunVar.Data[f] = float32((1-bn.Momentum)*bn.RunVar.Data[f]) + float32(bn.Momentum*float32(variance[f]))
		}
	} else {
		for f := 0; f < bn.Feat; f++ {
			mean[f] = float64(bn.RunMean.Data[f])
			variance[f] = float64(bn.RunVar.Data[f])
		}
	}
	for f := 0; f < bn.Feat; f++ {
		bn.invStd[f] = float32(1 / math.Sqrt(variance[f]+float64(bn.Eps)))
	}
	bn.y = reuseLike(bn.y, x)
	bn.xhat = reuseLike(bn.xhat, x)
	for b := 0; b < batch; b++ {
		for f := 0; f < feat; f++ {
			m, inv := float32(mean[f]), bn.invStd[f]
			gamma, beta := bn.Gamma.W.Data[f], bn.Beta.W.Data[f]
			lo, hi := (b*feat+f)*spatial, (b*feat+f+1)*spatial
			xh, y := bn.xhat.Data[lo:hi], bn.y.Data[lo:hi]
			for i, v := range x.Data[lo:hi] {
				h := (v - m) * inv
				xh[i] = h
				y[i] = float32(gamma*h) + beta
			}
		}
	}
	bn.perFeat = n
	return bn.y
}

// Backward implements the standard batchnorm gradient.
func (bn *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	batch, feat, spatial := bn.geometry(grad)
	n := float32(bn.perFeat)
	dgamma, dbeta := bn.accumulators()
	for b := 0; b < batch; b++ {
		for f := 0; f < feat; f++ {
			lo, hi := (b*feat+f)*spatial, (b*feat+f+1)*spatial
			xh := bn.xhat.Data[lo:hi]
			dg, db := dgamma[f], dbeta[f]
			for i, g := range grad.Data[lo:hi] {
				dg += float64(float64(g) * float64(xh[i]))
				db += float64(g)
			}
			dgamma[f], dbeta[f] = dg, db
		}
	}
	for f := 0; f < bn.Feat; f++ {
		bn.Gamma.G.Data[f] += float32(dgamma[f])
		bn.Beta.G.Data[f] += float32(dbeta[f])
	}
	bn.dx = reuseLike(bn.dx, bn.xhat)
	for b := 0; b < batch; b++ {
		for f := 0; f < feat; f++ {
			// dx = gamma*invStd/n * (n*g - dbeta - xhat*dgamma)
			scale := bn.Gamma.W.Data[f] * bn.invStd[f] / n
			dg, db := float32(dgamma[f]), float32(dbeta[f])
			lo, hi := (b*feat+f)*spatial, (b*feat+f+1)*spatial
			xh, dx := bn.xhat.Data[lo:hi], bn.dx.Data[lo:hi]
			for i, g := range grad.Data[lo:hi] {
				dx[i] = scale * (float32(n*g) - db - float32(xh[i]*dg))
			}
		}
	}
	return bn.dx
}

// Params returns gamma and beta. Running statistics are state, not
// parameters; they are transferred by the serialization helpers instead.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// Cost reports ~4 FLOPs per element.
func (bn *BatchNorm) Cost(inElems int) (int, int) { return 4 * inElems, inElems }
