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

// Every fan-out in the process — the kernels' and the federated round's one
// training session per device — dispatches onto one persistent pool of
// worker goroutines instead of spawning per call: a `go func` per chunk
// costs a closure, a goroutine stack, and a WaitGroup allocation on every
// kernel invocation, which is exactly the steady-state garbage the arena
// exists to eliminate. Workers live for the process and drain taskCh; each
// task is a pooled loop descriptor carrying its own WaitGroup, so the hot
// paths stay allocation-free.
//
// parallelDepth counts active parallel regions. A fan-out started from
// inside one (e.g. a per-sample GEMM under Conv2D's batch fan-out, or a
// device's training GEMMs under the round's device fan-out) sees depth > 0
// and runs serially instead of fanning out again, which would oversubscribe
// GOMAXPROCS. Results never depend on this: every index's work is the same
// whichever goroutine runs it, and no caller groups a reduction by worker.
var (
	workerOnce    sync.Once
	taskCh        chan *loopDesc
	poolSize      int
	parallelDepth atomic.Int32
)

func startWorkers() {
	poolSize = max(runtime.GOMAXPROCS(0), 1)
	taskCh = make(chan *loopDesc, 4*poolSize)
	for i := 0; i < poolSize; i++ {
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
// every fan-out invoked inside (GEMM bands, ParallelFor bodies, …) runs
// serially on the calling goroutine instead of fanning out onto the worker
// pool. Numerics are unaffected (see the depth-guard contract above):
// results are bitwise identical with the guard raised or not.
func WithSerialKernels(fn func()) {
	parallelDepth.Add(1)
	defer parallelDepth.Add(-1)
	fn()
}

// loopDesc is the pooled descriptor behind a fan-out: each goroutine that
// shares it claims one worker index from nextW, then loop indices from next,
// and reports to its WaitGroup. Exactly one of fn and fnW is set.
type loopDesc struct {
	fn    func(i int)
	fnW   func(w, i int)
	n     int
	next  atomic.Int64
	nextW atomic.Int64
	wg    sync.WaitGroup
}

func (d *loopDesc) drain() {
	w := int(d.nextW.Add(1)) - 1
	for {
		i := int(d.next.Add(1)) - 1
		if i >= d.n {
			return
		}
		if d.fnW != nil {
			d.fnW(w, i)
		} else {
			d.fn(i)
		}
	}
}

var loopPool = sync.Pool{New: func() any { return new(loopDesc) }}

// ParallelFor runs fn(i) once for each i in [0, n), sharing the indices out
// to up to Parallelism goroutines by work stealing from an atomic counter,
// so uneven per-index costs balance themselves. fn must be safe to call
// concurrently for distinct i, and each index must write only its own
// outputs: which goroutine runs an index, and in what order, is scheduling.
// It runs serially on the caller when Parallelism is 1, n is 1, or the
// caller is already inside a fan-out.
func ParallelFor(n int, fn func(i int)) {
	fanOut(Parallelism, n, fn, nil)
}

// ParallelForWorkers is ParallelFor with a caller-given bound and a worker
// index: fn(w, i) runs once for each i in [0, n) on at most
// WorkerCount(workers, n) goroutines, and w, in [0, WorkerCount(workers, n)),
// names the goroutine running it. One goroutine holds a given w for the whole
// call, so fn may keep per-worker state in a slice indexed by w. With a bound
// of 1 the loop runs on the caller outside any parallel region, so the
// kernels inside fn still fan out; with a larger bound they run serially.
func ParallelForWorkers(workers, n int, fn func(w, i int)) {
	fanOut(WorkerCount(workers, n), n, nil, fn)
}

// WorkerCount is the bound ParallelForWorkers(workers, n, …) runs n indices
// under: workers, or runtime.NumCPU() when workers <= 0, capped at n.
func WorkerCount(workers, n int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return min(workers, n)
}

// fanOut is the one dispatch behind ParallelFor and ParallelForWorkers: the
// caller is one of up to workers goroutines, and no more helpers are queued
// than the pool has goroutines to run them.
func fanOut(workers, n int, fn func(i int), fnW func(w, i int)) {
	if n <= 0 {
		return
	}
	workers = min(workers, n)
	if workers <= 1 || parallelDepth.Load() > 0 {
		parSerial.Inc()
		for i := 0; i < n; i++ {
			if fnW != nil {
				fnW(0, i)
			} else {
				fn(i)
			}
		}
		return
	}
	parFanout.Inc()
	d := loopPool.Get().(*loopDesc)
	d.fn, d.fnW, d.n = fn, fnW, n
	d.next.Store(0)
	d.nextW.Store(0)
	parallelDepth.Add(1)
	workerOnce.Do(startWorkers)
	helpers := min(workers-1, poolSize)
	d.wg.Add(helpers)
	for h := 0; h < helpers; h++ {
		taskCh <- d
	}
	d.drain() // the caller is one of the workers
	d.wg.Wait()
	parallelDepth.Add(-1)
	d.fn, d.fnW = nil, nil
	loopPool.Put(d)
}
