package nn

import "repro/internal/tensor"

// Layers keep one output tensor and one input-gradient tensor alive across
// steps instead of allocating fresh ones per call, so steady-state training
// does no hot-path allocation. The buffers are not the layer's for good: they
// are lent to it (tensor.Borrow) for one training or evaluation bout, which
// ends in the loop that ran it (ReleaseBuffers). The ownership contract (see
// docs/PERF.md):
//
//   - a layer's Forward/Backward result is valid only until that layer's next
//     Forward/Backward, and dead once its bout ended: its backing array is
//     then back in the arena, and the next bout — on whichever model the
//     worker picks up — is handed it. Callers that hold a result longer must
//     Clone it.
//   - a consumer must not write into a tensor a layer's Forward returned.
//     ReLU.Backward reads the output ReLU.Forward produced instead of keeping
//     a mask of its own. (Accumulating into a Backward result is legal:
//     modular.Selector sums its heads' input gradients into the first one.
//     So is the one in-tree write to a Forward result, the selector's logit
//     noise, which lands in the output of a Dense head that never re-reads
//     it.)
//
// The helpers are monomorphic (reuse2/reuse4) so every call site states its
// rank; reuseLike serves the elementwise layers, whose output has whatever
// shape the input has.
//
// A shape change keeps the backing array whenever it is large enough and
// re-shapes the tensor in place: a module of a routed layer sees a different
// sub-batch size nearly every step. An outgrown array goes back to the arena
// and a larger one is borrowed. In every case the returned tensor's contents
// are unspecified — every caller overwrites (or zeroes) all of it, as the
// same-shape hit already required.

// reuse2 returns t when it already has shape [d0, d1], else t re-shaped over
// its backing array when that is large enough, else a borrowed tensor (t's
// array released).
func reuse2(t *tensor.Tensor, d0, d1 int) *tensor.Tensor {
	return tensor.Refit(t, d0, d1)
}

// reuse4 is reuse2 for shape [d0, d1, d2, d3].
func reuse4(t *tensor.Tensor, d0, d1, d2, d3 int) *tensor.Tensor {
	return tensor.Refit(t, d0, d1, d2, d3)
}

// reuseLike is reuse2 for whatever shape x has.
func reuseLike(t, x *tensor.Tensor) *tensor.Tensor {
	return tensor.Refit(t, x.Shape()...)
}
