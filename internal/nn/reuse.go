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
//
// A shape change keeps the backing array whenever it is large enough: a
// module of a routed layer sees a different sub-batch size nearly every step,
// and a fresh buffer per step was half of all bytes a CNN round allocated.
// Either way the returned tensor's contents are unspecified — every caller
// overwrites (or zeroes) all of it, as the same-shape hit already required.

// reuse2 returns t when it already has shape [d0, d1], else a tensor of that
// shape over t's backing array when that is large enough, else a fresh one.
func reuse2(t *tensor.Tensor, d0, d1 int) *tensor.Tensor {
	if t != nil && t.Rank() == 2 && t.Dim(0) == d0 && t.Dim(1) == d1 {
		return t
	}
	if n := d0 * d1; t != nil && cap(t.Data) >= n {
		return tensor.FromSlice(t.Data[:n], d0, d1)
	}
	return tensor.New(d0, d1)
}

// reuse4 is reuse2 for shape [d0, d1, d2, d3].
func reuse4(t *tensor.Tensor, d0, d1, d2, d3 int) *tensor.Tensor {
	if t != nil && t.Rank() == 4 &&
		t.Dim(0) == d0 && t.Dim(1) == d1 && t.Dim(2) == d2 && t.Dim(3) == d3 {
		return t
	}
	if n := d0 * d1 * d2 * d3; t != nil && cap(t.Data) >= n {
		return tensor.FromSlice(t.Data[:n], d0, d1, d2, d3)
	}
	return tensor.New(d0, d1, d2, d3)
}

// reuseLike is reuse2 for whatever shape x has.
func reuseLike(t, x *tensor.Tensor) *tensor.Tensor {
	if t != nil && t.SameShape(x) {
		return t
	}
	if t != nil && cap(t.Data) >= x.Len() {
		return tensor.FromSlice(t.Data[:x.Len()], x.Shape()...)
	}
	return tensor.New(x.Shape()...)
}
