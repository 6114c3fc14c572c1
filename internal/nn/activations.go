package nn

import (
	"repro/internal/tensor"
)

// ReLU is the rectified linear activation, applied elementwise. Its output
// and input-gradient tensors follow the reuse contract of reuse.go.
type ReLU struct {
	mask  []bool
	y, dx *tensor.Tensor
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes negative elements and records the active mask.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.y = reuseLike(r.y, x)
	y := r.y.Data
	if cap(r.mask) < len(y) {
		r.mask = make([]bool, len(y))
	}
	r.mask = r.mask[:len(y)]
	for i, v := range x.Data {
		if v <= 0 {
			y[i] = 0
			r.mask[i] = false
		} else {
			y[i] = v
			r.mask[i] = true
		}
	}
	return r.y
}

// Backward passes gradient only through active elements.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	r.dx = reuseLike(r.dx, grad)
	dx := r.dx.Data
	for i, g := range grad.Data {
		if r.mask[i] {
			dx[i] = g
		} else {
			dx[i] = 0
		}
	}
	return r.dx
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Cost reports one FLOP per element.
func (r *ReLU) Cost(inElems int) (int, int) { return inElems, inElems }
