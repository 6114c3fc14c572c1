package nn

import (
	"repro/internal/tensor"
)

// ReLU is the rectified linear activation, applied elementwise. Its output
// and input-gradient tensors follow the reuse contract of reuse.go. It keeps
// no mask: an element was active exactly when the output it still holds is
// not ≤ 0 (NaN passes through both directions, −0 and everything below block).
type ReLU struct {
	y, dx *tensor.Tensor
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes negative elements.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.y = reuseLike(r.y, x)
	y := r.y.Data
	for i, v := range x.Data {
		if v <= 0 {
			y[i] = 0
		} else {
			y[i] = v
		}
	}
	return r.y
}

// Backward passes gradient only through the elements the last Forward left
// active, read off its output.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	r.dx = reuseLike(r.dx, grad)
	dx, y := r.dx.Data, r.y.Data
	for i, g := range grad.Data {
		if y[i] <= 0 {
			dx[i] = 0
		} else {
			dx[i] = g
		}
	}
	return r.dx
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Cost reports one FLOP per element.
func (r *ReLU) Cost(inElems int) (int, int) { return inElems, inElems }
