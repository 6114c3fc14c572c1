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

// Dropout randomly zeroes elements during training with probability Rate and
// rescales survivors by 1/(1-Rate) (inverted dropout). It is the identity at
// inference time.
type Dropout struct {
	Rate float32
	rng  *tensor.RNG
	mask []float32
}

// NewDropout creates a dropout layer with its own RNG stream.
func NewDropout(rng *tensor.RNG, rate float32) *Dropout {
	return &Dropout{Rate: rate, rng: rng.Split()}
}

// Forward applies dropout in training mode.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.Rate <= 0 {
		d.mask = nil
		return x
	}
	y := x.Clone()
	if cap(d.mask) < y.Len() {
		d.mask = make([]float32, y.Len())
	}
	d.mask = d.mask[:y.Len()]
	keep := 1 - d.Rate
	scale := 1 / keep
	for i := range y.Data {
		if float32(d.rng.Float64()) < d.Rate {
			d.mask[i] = 0
			y.Data[i] = 0
		} else {
			d.mask[i] = scale
			y.Data[i] *= scale
		}
	}
	return y
}

// Backward applies the same mask to the gradient.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return grad
	}
	dx := grad.Clone()
	for i := range dx.Data {
		dx.Data[i] *= d.mask[i]
	}
	return dx
}

// Params returns nil; Dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }

// Cost reports one FLOP per element.
func (d *Dropout) Cost(inElems int) (int, int) { return inElems, inElems }
