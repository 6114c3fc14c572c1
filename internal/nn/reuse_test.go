package nn

import (
	"math"
	"os"
	"testing"

	"repro/internal/tensor"
)

// Every test of the package runs with arrays NaN-filled on their way back to
// the arena (tensor.PoisonReleasedForTests): a layer that read a recycled
// buffer before writing it would compute NaN in whichever test covers it.
func TestMain(m *testing.M) {
	tensor.PoisonReleasedForTests(true)
	os.Exit(m.Run())
}

// maskReLU is the two-array ReLU this package had before ReLU.Backward read
// the layer's own output: a []bool written by Forward and re-read by Backward.
// Kept as the reference the mask-free layer is pinned against.
type maskReLU struct {
	mask []bool
}

func (r *maskReLU) forward(x *tensor.Tensor) *tensor.Tensor {
	y := tensor.New(x.Shape()...)
	r.mask = make([]bool, x.Len())
	for i, v := range x.Data {
		if v <= 0 {
			y.Data[i] = 0
			r.mask[i] = false
		} else {
			y.Data[i] = v
			r.mask[i] = true
		}
	}
	return y
}

func (r *maskReLU) backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(grad.Shape()...)
	for i, g := range grad.Data {
		if r.mask[i] {
			dx.Data[i] = g
		}
	}
	return dx
}

// TestReLUMatchesMaskReference: forward and input gradient are bit-identical
// to the mask-keeping implementation, on random data and on every value for
// which "y ≤ 0" and "the mask was false" could conceivably part ways.
func TestReLUMatchesMaskReference(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	rng := tensor.NewRNG(19)
	x := tensor.New(6, 40)
	rng.FillNormal(x, 0, 1)
	copy(x.Data, []float32{nan, -nan, negZero, 0, inf, -inf, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1, -1})
	g := tensor.New(6, 40)
	rng.FillNormal(g, 0, 1)
	copy(g.Data[10:], []float32{nan, inf, -inf, negZero}) // gradients pass through untouched, whatever they are
	x.Data[10], x.Data[11], x.Data[12], x.Data[13] = 1, 2, -3, 4

	ref, r := &maskReLU{}, NewReLU()
	for step := 0; step < 2; step++ { // the second step runs on reused buffers
		wantY, wantDx := ref.forward(x), ref.backward(g)
		y := r.Forward(x, true)
		dx := r.Backward(g)
		for i := range x.Data {
			if math.Float32bits(y.Data[i]) != math.Float32bits(wantY.Data[i]) {
				t.Fatalf("step %d: y[%d] for x=%v is %v, the mask reference gives %v", step, i, x.Data[i], y.Data[i], wantY.Data[i])
			}
			if math.Float32bits(dx.Data[i]) != math.Float32bits(wantDx.Data[i]) {
				t.Fatalf("step %d: dx[%d] for x=%v, g=%v is %v, the mask reference gives %v", step, i, x.Data[i], g.Data[i], dx.Data[i], wantDx.Data[i])
			}
		}
	}
}

// TestReleaseBuffersEndsTheLoan: ReleaseBuffers hands every buffer and
// gradient accumulator the layer tree held back to the arena (seen here
// through the poison seam: the arrays read NaN afterwards), keeps the
// weights, and leaves a tree that trains on.
func TestReleaseBuffersEndsTheLoan(t *testing.T) {
	rng := tensor.NewRNG(23)
	net := NewSequential(
		NewConv2D(rng, 2, 4, 3, 1, 1), NewBatchNorm(4), NewReLU(), NewMaxPool2D(2, 2),
		NewGlobalAvgPool(), NewDense(rng, 4, 3),
	)
	x := tensor.New(4, 2, 8, 8)
	rng.FillNormal(x, 0, 1)
	g := tensor.New(4, 3)
	rng.FillNormal(g, 0, 1)
	// Gradients of a model under construction are plain tensors; a released
	// one's are loans. Go through one release so both kinds of buffer are.
	ReleaseBuffers(net)
	EnsureGrads(net.Params())
	net.Forward(x, true)
	net.Backward(g)

	var held [][]float32
	hold := func(ts ...*tensor.Tensor) {
		for _, b := range ts {
			if b == nil || len(b.Data) == 0 {
				t.Fatal("a layer buffer is missing after a training step")
			}
			held = append(held, b.Data)
		}
	}
	conv, bn := net.Layers[0].(*Conv2D), net.Layers[1].(*BatchNorm)
	relu, pool := net.Layers[2].(*ReLU), net.Layers[3].(*MaxPool2D)
	gap, dense := net.Layers[4].(*GlobalAvgPool), net.Layers[5].(*Dense)
	hold(conv.y, conv.dx, bn.y, bn.dx, bn.xhat, relu.y, relu.dx, pool.y, pool.dx, gap.y, gap.dx, dense.y, dense.dx)
	for _, p := range net.Params() {
		hold(p.G)
	}
	weights := net.Params()[0].W

	ReleaseBuffers(net)
	for i, d := range held {
		if !math.IsNaN(float64(d[0])) || !math.IsNaN(float64(d[len(d)-1])) {
			t.Fatalf("buffer %d of the tree was not returned to the arena by ReleaseBuffers", i)
		}
	}
	for _, p := range net.Params() {
		if p.G != nil {
			t.Fatalf("released %s holds a gradient", p.Name)
		}
	}
	for _, v := range weights.Data {
		if math.IsNaN(float64(v)) {
			t.Fatal("ReleaseBuffers returned a weight array to the arena")
		}
	}
	EnsureGrads(net.Params())
	for _, p := range net.Params() {
		for _, v := range p.G.Data {
			if v != 0 {
				t.Fatalf("re-armed gradient of %s is not zero: %v", p.Name, v)
			}
		}
	}
	out := net.Forward(x, true)
	net.Backward(g)
	if out.HasNaN() {
		t.Fatal("a released tree computed NaN from recycled buffers")
	}
	for _, p := range net.Params() {
		if p.G.HasNaN() {
			t.Fatalf("gradient of %s picked up NaN from a recycled buffer", p.Name)
		}
	}
}

// TestSGDReleaseReturnsVelocity: the optimizer's momentum state is a loan
// that Release ends, and a released optimizer starts over from zero velocity.
func TestSGDReleaseReturnsVelocity(t *testing.T) {
	p := NewParam("w", 300)
	p.W.Fill(1)
	p.G.Fill(0.5)
	opt := NewSGD(0.1, 0.9, 0)
	opt.Step([]*Param{p})
	v := opt.velocity[p].Data
	first := p.W.Data[0]
	opt.Release()
	if !math.IsNaN(float64(v[0])) || len(opt.velocity) != 0 {
		t.Fatal("Release did not return the velocity buffer")
	}
	p.W.Fill(1)
	p.G.Fill(0.5)
	opt.Step([]*Param{p})
	if p.W.Data[0] != first {
		t.Fatalf("a released optimizer's first step moved the weight to %v, a fresh one's to %v", p.W.Data[0], first)
	}
}
