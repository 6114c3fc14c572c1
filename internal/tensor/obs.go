package tensor

import "repro/internal/obs"

// Kernel-layer telemetry (docs/OBSERVABILITY.md). These are pure dispatch
// counters on obs.Default(): which GEMM path ran, whether scratch requests
// hit the arena, and how parallel kernels dispatched. They are incremented
// with single atomic adds (no locks, no allocations — the nn AllocsPerRun
// pins run with them enabled) and are never read by kernel code, so they
// cannot influence numerics or scheduling.
var (
	gemmPackedCount = obs.Default().Counter("nebula_tensor_gemm_total", "path", "packed")
	gemmNaiveCount  = obs.Default().Counter("nebula_tensor_gemm_total", "path", "naive")

	convImplicitCount = obs.Default().Counter("nebula_tensor_conv_total", "path", "implicit")
	convRefCount      = obs.Default().Counter("nebula_tensor_conv_total", "path", "ref")

	scratchHit      = obs.Default().Counter("nebula_tensor_scratch_total", "outcome", "hit")
	scratchMiss     = obs.Default().Counter("nebula_tensor_scratch_total", "outcome", "miss")
	scratchOversize = obs.Default().Counter("nebula_tensor_scratch_total", "outcome", "oversize")

	bufferHit      = obs.Default().Counter("nebula_tensor_buffer_total", "outcome", "hit")
	bufferMiss     = obs.Default().Counter("nebula_tensor_buffer_total", "outcome", "miss")
	bufferOversize = obs.Default().Counter("nebula_tensor_buffer_total", "outcome", "oversize")

	parSerial = obs.Default().Counter("nebula_tensor_parallel_total", "mode", "serial")
	parFanout = obs.Default().Counter("nebula_tensor_parallel_total", "mode", "fanout")
)

func init() {
	r := obs.Default()
	r.Help("nebula_tensor_gemm_total", "GEMM dispatches, by kernel path taken.")
	r.Help("nebula_tensor_conv_total", "Convolution GEMM dispatches: implicit = fused-gather path, ref = im2col oracle.")
	r.Help("nebula_tensor_scratch_total", "Scratch-arena requests: hit = pooled buffer reused, miss = fresh allocation, oversize = above the largest size class.")
	r.Help("nebula_tensor_buffer_total", "Layer-buffer arena requests (Borrow): hit = a released array reused, miss = fresh allocation, oversize = above the largest size class.")
	r.Help("nebula_tensor_parallel_total", "ParallelFor dispatches: serial = ran on the caller, fanout = shared with the worker pool.")
}
