package nn

import (
	"math"

	"repro/internal/tensor"
)

// ReLU is the rectified linear activation, applied elementwise. Its output
// and input-gradient tensors follow the reuse contract of reuse.go. It keeps
// no mask: an element was active exactly when the output it still holds is
// not ≤ 0 (NaN passes through both directions, −0 and everything below block).
//
// Both loops select on the value's bits — keep them or take zero's — which
// compiles to a conditional move: activations are positive half the time in
// no learnable order, and a branch here is mispredicted every other element.
type ReLU struct {
	y, dx *tensor.Tensor
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes negative elements.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.y = reuseLike(r.y, x)
	y := r.y.Data[:len(x.Data)]
	for i, v := range x.Data {
		bits := math.Float32bits(v)
		if v <= 0 {
			bits = 0
		}
		y[i] = math.Float32frombits(bits)
	}
	return r.y
}

// Backward passes gradient only through the elements the last Forward left
// active, read off its output.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	r.dx = reuseLike(r.dx, grad)
	dx, y := r.dx.Data[:len(grad.Data)], r.y.Data[:len(grad.Data)]
	for i, g := range grad.Data {
		bits := math.Float32bits(g)
		if y[i] <= 0 {
			bits = 0
		}
		dx[i] = math.Float32frombits(bits)
	}
	return r.dx
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Cost reports one FLOP per element.
func (r *ReLU) Cost(inElems int) (int, int) { return inElems, inElems }
