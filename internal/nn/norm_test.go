package nn

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// closureBatchNorm is the per-element-closure BatchNorm the row-loop
// implementation replaced, kept verbatim as the differential oracle: every
// pass visits the flat tensor once and hands each element to a callback with
// its feature index (i/spatial)%c. It allocates its outputs fresh on every
// call.
type closureBatchNorm struct {
	*BatchNorm
	xhat   *tensor.Tensor
	invStd []float32
	shape  []int
	n      int
}

func (bn *closureBatchNorm) forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	spatial := 1
	if x.Rank() == 4 {
		spatial = x.Dim(2) * x.Dim(3)
	}
	n := x.Dim(0) * spatial
	bn.shape = x.Shape()
	y := x.Clone()
	bn.invStd = make([]float32, bn.Feat)

	mean := make([]float64, bn.Feat)
	variance := make([]float64, bn.Feat)
	if train {
		bn.forEachIdx(x, func(f int, v float32, _ int) { mean[f] += float64(v) })
		for f := range mean {
			mean[f] /= float64(n)
		}
		bn.forEachIdx(x, func(f int, v float32, _ int) {
			d := float64(v) - mean[f]
			variance[f] += d * d
		})
		for f := range variance {
			variance[f] /= float64(n)
		}
		for f := 0; f < bn.Feat; f++ {
			bn.RunMean.Data[f] = (1-bn.Momentum)*bn.RunMean.Data[f] + bn.Momentum*float32(mean[f])
			bn.RunVar.Data[f] = (1-bn.Momentum)*bn.RunVar.Data[f] + bn.Momentum*float32(variance[f])
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
	bn.xhat = tensor.New(x.Shape()...)
	bn.forEachIdx(x, func(f int, v float32, i int) {
		xh := (v - float32(mean[f])) * bn.invStd[f]
		bn.xhat.Data[i] = xh
		y.Data[i] = bn.Gamma.W.Data[f]*xh + bn.Beta.W.Data[f]
	})
	bn.n = n
	return y
}

func (bn *closureBatchNorm) backward(grad *tensor.Tensor) *tensor.Tensor {
	n := float32(bn.n)
	dgamma := make([]float64, bn.Feat)
	dbeta := make([]float64, bn.Feat)
	bn.forEachIdx(grad, func(f int, g float32, i int) {
		dgamma[f] += float64(g) * float64(bn.xhat.Data[i])
		dbeta[f] += float64(g)
	})
	for f := 0; f < bn.Feat; f++ {
		bn.Gamma.G.Data[f] += float32(dgamma[f])
		bn.Beta.G.Data[f] += float32(dbeta[f])
	}
	dx := tensor.New(bn.shape...)
	bn.forEachIdx(grad, func(f int, g float32, i int) {
		dx.Data[i] = bn.Gamma.W.Data[f] * bn.invStd[f] / n *
			(n*g - float32(dbeta[f]) - bn.xhat.Data[i]*float32(dgamma[f]))
	})
	return dx
}

func (bn *closureBatchNorm) forEachIdx(x *tensor.Tensor, fn func(f int, v float32, i int)) {
	if x.Rank() == 2 {
		feat := x.Dim(1)
		for i, v := range x.Data {
			fn(i%feat, v, i)
		}
		return
	}
	c, spatial := x.Dim(1), x.Dim(2)*x.Dim(3)
	for i, v := range x.Data {
		fn((i/spatial)%c, v, i)
	}
}

// TestBatchNormMatchesClosureImplementation pins the row-loop BatchNorm to
// the closure implementation bit for bit — outputs, input gradients,
// parameter gradients and running statistics — over several steps (so the
// reused buffers carry stale contents into each call), rank-2 and rank-4,
// with an eval forward after every training step.
func TestBatchNormMatchesClosureImplementation(t *testing.T) {
	same := func(what string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s[%d] = %v, closure implementation %v", what, i, got[i], want[i])
			}
		}
	}
	for _, shape := range [][]int{{8, 5}, {1, 3}, {4, 3, 4, 4}, {16, 16, 8, 8}, {3, 7, 1, 5}} {
		rng := tensor.NewRNG(21)
		bn := NewBatchNorm(shape[1])
		rng.FillNormal(bn.Gamma.W, 1, 0.5)
		rng.FillNormal(bn.Beta.W, 0, 0.5)
		ref := &closureBatchNorm{BatchNorm: CloneLayer(bn).(*BatchNorm)}
		for step := 0; step < 3; step++ {
			x := tensor.New(shape...)
			g := tensor.New(shape...)
			rng.FillNormal(x, 0.3, 2)
			rng.FillNormal(g, 0, 1)

			same("train y", bn.Forward(x, true).Data, ref.forward(x, true).Data)
			same("dx", bn.Backward(g).Data, ref.backward(g).Data)
			same("dgamma", bn.Gamma.G.Data, ref.Gamma.G.Data)
			same("dbeta", bn.Beta.G.Data, ref.Beta.G.Data)
			same("running mean", bn.RunMean.Data, ref.RunMean.Data)
			same("running var", bn.RunVar.Data, ref.RunVar.Data)
			same("eval y", bn.Forward(x, false).Data, ref.forward(x, false).Data)
		}
	}
}

// TestBatchNormZeroAllocSteadyState: once its buffers are warm, a BatchNorm
// forward+backward pair allocates nothing, for either input rank;
// ReleaseBuffers — how every bout ends — drops every one of those buffers.
func TestBatchNormZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; alloc counts are meaningless under -race")
	}
	rng := tensor.NewRNG(9)
	for _, shape := range [][]int{{32, 64}, {16, 16, 8, 8}} {
		bn := NewBatchNorm(shape[1])
		x := tensor.New(shape...)
		g := tensor.New(shape...)
		rng.FillNormal(x, 0, 1)
		rng.FillNormal(g, 0, 1)
		step := func() {
			bn.Forward(x, true)
			bn.Backward(g)
		}
		step()
		runtime.GC()
		if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
			t.Errorf("BatchNorm forward+backward on %v: %v allocs/op in steady state, want 0", shape, allocs)
		}
		gamma, mean := bn.Gamma.W, bn.RunMean
		ReleaseBuffers(bn)
		if bn.y != nil || bn.xhat != nil || bn.dx != nil || bn.accA != nil || bn.invStd != nil {
			t.Errorf("ReleaseBuffers(BatchNorm) on %v kept a reuse buffer", shape)
		}
		if bn.Gamma.W != gamma || bn.RunMean != mean {
			t.Errorf("ReleaseBuffers(BatchNorm) on %v did not keep weights and state", shape)
		}
	}
}
