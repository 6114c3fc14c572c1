package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallelism controls how many worker goroutines the parallel kernels use.
// It defaults to GOMAXPROCS and can be lowered (e.g. to 1) for profiling.
// Values < 1 are treated as 1. No result depends on it: it sets only how
// many goroutines share the work, never how a sum is grouped.
var Parallelism = runtime.GOMAXPROCS(0)

// minParallelWork is the smallest per-call element count for which spawning
// goroutines pays off; below it kernels run serially.
const minParallelWork = 1 << 12

// The parallel kernels dispatch onto a persistent pool of worker goroutines
// instead of spawning per call: a `go func` per chunk costs a closure, a
// goroutine stack, and a WaitGroup allocation on every kernel invocation,
// which is exactly the steady-state garbage the arena exists to eliminate.
// Workers live for the process and drain taskCh; each task is a pooled loop
// descriptor carrying its own WaitGroup, so the hot paths stay
// allocation-free.
//
// parallelDepth counts active parallel regions. A kernel invoked from inside
// a worker (e.g. a per-sample GEMM under Conv2D's batch fan-out) sees
// depth > 0 and runs serially instead of fanning out again, which would
// oversubscribe GOMAXPROCS. Results never depend on this: every index's work
// is the same whichever goroutine runs it, and no caller groups a reduction
// by worker.
var (
	workerOnce    sync.Once
	taskCh        chan *loopDesc
	parallelDepth atomic.Int32
)

func startWorkers() {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	taskCh = make(chan *loopDesc, 4*n)
	for i := 0; i < n; i++ {
		go func() {
			// Process-lifetime worker: drains the task channel forever.
			for d := range taskCh {
				d.drain()
				d.wg.Done()
			}
		}()
	}
}

// WithSerialKernels runs fn with the nested-parallelism depth guard raised:
// every tensor kernel invoked inside (GEMM bands, ParallelFor bodies, …) runs
// serially on the calling goroutine instead of fanning out onto the worker
// pool. Coarse-grained fan-outs above the tensor layer — e.g. the federated
// round executor running one training session per device — wrap each outer
// worker's body in this so device-level and kernel-level parallelism never
// multiply into GOMAXPROCS oversubscription. Numerics are unaffected (see the
// depth-guard contract above): results are bitwise identical with the guard
// raised or not.
func WithSerialKernels(fn func()) {
	parallelDepth.Add(1)
	defer parallelDepth.Add(-1)
	fn()
}

// loopDesc is the pooled descriptor behind ParallelFor: the workers share it,
// claim indices from one atomic counter and report to its WaitGroup.
type loopDesc struct {
	fn   func(i int)
	n    int
	next atomic.Int64
	wg   sync.WaitGroup
}

func (d *loopDesc) drain() {
	for {
		i := int(d.next.Add(1)) - 1
		if i >= d.n {
			return
		}
		d.fn(i)
	}
}

var loopPool = sync.Pool{New: func() any { return new(loopDesc) }}

// ParallelFor runs fn(i) once for each i in [0, n), sharing the indices out
// to up to Parallelism goroutines by work stealing from an atomic counter,
// so uneven per-index costs balance themselves. fn must be safe to call
// concurrently for distinct i, and each index must write only its own
// outputs: which goroutine runs an index, and in what order, is scheduling.
// It runs serially on the caller when Parallelism is 1, n is 1, or the
// caller is already inside a parallel kernel.
func ParallelFor(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := min(Parallelism, n)
	if workers <= 1 || parallelDepth.Load() > 0 {
		parSerial.Inc()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	parFanout.Inc()
	d := loopPool.Get().(*loopDesc)
	d.fn, d.n = fn, n
	d.next.Store(0)
	parallelDepth.Add(1)
	workerOnce.Do(startWorkers)
	d.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		taskCh <- d
	}
	d.drain() // the caller is the first worker
	d.wg.Wait()
	parallelDepth.Add(-1)
	d.fn = nil
	loopPool.Put(d)
}
