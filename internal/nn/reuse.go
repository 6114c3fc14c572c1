package nn

import "repro/internal/tensor"

// Layers keep one output tensor and one input-gradient tensor alive across
// steps instead of allocating fresh ones per call, so steady-state training
// does no hot-path allocation. The ownership contract (see docs/PERF.md): a
// layer's Forward/Backward result is valid only until that layer's next
// Forward/Backward; callers that hold results longer must Clone them.
//
// The helpers are monomorphic (reuse2/reuse4) rather than variadic so the
// hit path does not allocate a shape slice; reuseLike serves the elementwise
// layers, whose output has whatever shape the input has.

// reuse2 returns t when it already has shape [d0, d1], else a fresh tensor.
func reuse2(t *tensor.Tensor, d0, d1 int) *tensor.Tensor {
	if t != nil && t.Rank() == 2 && t.Dim(0) == d0 && t.Dim(1) == d1 {
		return t
	}
	return tensor.New(d0, d1)
}

// reuse4 returns t when it already has shape [d0, d1, d2, d3], else a fresh
// tensor.
func reuse4(t *tensor.Tensor, d0, d1, d2, d3 int) *tensor.Tensor {
	if t != nil && t.Rank() == 4 &&
		t.Dim(0) == d0 && t.Dim(1) == d1 && t.Dim(2) == d2 && t.Dim(3) == d3 {
		return t
	}
	return tensor.New(d0, d1, d2, d3)
}

// reuseLike returns t when it already has x's shape, else a fresh tensor of
// that shape.
func reuseLike(t, x *tensor.Tensor) *tensor.Tensor {
	if t != nil && t.SameShape(x) {
		return t
	}
	return tensor.New(x.Shape()...)
}
