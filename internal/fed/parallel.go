package fed

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// This file is the round executor: the bounded fan-out every strategy uses to
// run per-device work (derive / train / evaluate) concurrently without giving
// up bitwise reproducibility. The contract has three phases:
//
//  1. Coordinator prep (serial). Every draw from the round's master RNG —
//     client sampling, dropout rolls, fault pre-draws, and one Split() per
//     sampled device — happens on the coordinator in canonical device order,
//     BEFORE any worker starts. The master stream's state therefore never
//     depends on how the parallel phase interleaves. Shared mutable state
//     (strategy maps, fault counters) is read or updated here only.
//
//  2. Parallel phase. Workers execute one device at a time via forEachDevice.
//     A worker body may touch: its device's derived RNG stream, its device's
//     Client (Monitor/DeviceData own per-device streams), read-only shared
//     models, and its own slot in a per-device result array — nothing else.
//     Outputs (updates, cost deltas, trace events) go into the device's slot;
//     trace events buffer in a per-device trace.Span.
//
//  3. Canonical reduce (serial). The coordinator folds the result array in
//     device index order: cost accumulation, map writes, aggregation input
//     order, slot maxima, and span flushes all happen in the same order a
//     serial loop would have produced, so artifacts are identical for any
//     worker count, including 1. See docs/PARALLEL.md.

// forEachDevice runs body(i) for every i in [0, n) on a bounded pool of
// worker goroutines. workers <= 0 means runtime.NumCPU(). Each worker wraps
// its run in tensor.WithSerialKernels so per-device GEMMs execute serially
// inside the outer fan-out instead of oversubscribing the tensor pool; with
// workers == 1 the loop runs inline on the caller with kernel parallelism
// left on. Work is distributed dynamically (device costs are non-uniform),
// which is safe because bodies are index-addressed and mutually independent.
func forEachDevice(workers, n int, body func(i int)) {
	forEachDeviceState(workers, n, nil, func(_ any, i int) { body(i) })
}

// forEachDeviceState is forEachDevice with per-worker state: newState runs
// once in each worker goroutine, with the worker's index in
// [0, poolSize(workers, n)), and its value is passed to every body call that
// worker executes. Use it to give each worker a private clone of a shared
// model whose Forward mutates activation caches. A nil newState passes a nil
// state.
func forEachDeviceState(workers, n int, newState func(w int) any, body func(state any, i int)) {
	if n <= 0 {
		return
	}
	workers = poolSize(workers, n)
	// Pool telemetry (docs/OBSERVABILITY.md): dispatch counters and a live
	// occupancy gauge. Write-only — bodies never read these — so the fan-out
	// stays artifact-neutral; the gauge returns to 0 at quiescence.
	fedMetrics.poolWorkers.Set(float64(workers))
	if workers == 1 {
		fedMetrics.poolInline.Inc()
		var st any
		if newState != nil {
			st = newState(0)
		}
		for i := 0; i < n; i++ {
			fedMetrics.poolTasks.Inc()
			body(st, i)
		}
		return
	}
	fedMetrics.poolFanout.Inc()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			tensor.WithSerialKernels(func() {
				var st any
				if newState != nil {
					st = newState(w)
				}
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					fedMetrics.poolTasks.Inc()
					fedMetrics.poolBusy.Add(1)
					body(st, i)
					fedMetrics.poolBusy.Add(-1)
				}
			})
		}()
	}
	wg.Wait()
}

// poolSize is the number of workers forEachDevice runs n bodies on.
func poolSize(workers, n int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return min(workers, n)
}

// splitStreams derives one RNG stream per device from the master stream, in
// canonical device order. Every device gets a stream whether or not it will
// participate, so the master stream advances by a fixed amount per round
// regardless of dropout and fault outcomes. keep is the caller's last round
// of streams, which nothing draws from any more, or nil for a caller that
// keeps none: its generators are re-seeded in place (tensor.RNG.SplitInto),
// so a round allocates only the streams it has more of.
func splitStreams(rng *tensor.RNG, keep []*tensor.RNG, n int) []*tensor.RNG {
	keep = append(keep[:cap(keep)], make([]*tensor.RNG, max(0, n-cap(keep)))...)[:n]
	for i := range keep {
		keep[i] = rng.SplitInto(keep[i])
	}
	return keep
}
