package tensor

import (
	"sync"
	"sync/atomic"
)

// Scratch is a pooled float32 buffer drawn from the package arena. Contents
// are unspecified on Get; every consumer must fully overwrite (or explicitly
// zero) the region it uses before reading it back. See docs/PERF.md for the
// ownership rules.
type Scratch struct {
	// Data is the usable region, sized to the Get request.
	Data []float32
	// class is the size-class bit width, or -1 for oversized one-shot
	// buffers that are not returned to a pool.
	class int
}

// Size classes are powers of two between 1<<scratchMinBits and
// 1<<scratchMaxBits elements. Requests above the top class fall back to a
// plain allocation so a single huge call cannot pin memory in the pools
// forever (sync.Pool entries are additionally dropped by the GC).
const (
	scratchMinBits = 8
	scratchMaxBits = 24
)

var scratchPools [scratchMaxBits - scratchMinBits + 1]sync.Pool

// Outstanding-bytes accounting: every live Scratch contributes its backing
// capacity (the full size class, or the exact length for oversized buffers)
// between Get and Put. The peak watermark is the measured footprint of a
// kernel's working set, and what proves the implicit-GEMM conv deleted the
// column matrix rather than just relocating it
// (TestConvGemmScratchAccounting). Plain atomics: two adds and a CAS loop per
// Get/Put, no locks, no allocations, never read by kernel code.
var (
	scratchLiveBytes atomic.Int64
	scratchPeakBytes atomic.Int64
)

// scratchAcquired records n live bytes and advances the peak watermark.
func scratchAcquired(n int64) {
	live := scratchLiveBytes.Add(n)
	for {
		peak := scratchPeakBytes.Load()
		if live <= peak || scratchPeakBytes.CompareAndSwap(peak, live) {
			return
		}
	}
}

// ScratchLiveBytes returns the bytes currently held by un-Put Scratch
// buffers. Zero means every consumer returned its scratch — the steady-state
// invariant the conv/GEMM paths are tested against.
func ScratchLiveBytes() int64 { return scratchLiveBytes.Load() }

// ScratchPeakBytes returns the high-water mark of live scratch bytes since
// the last ResetScratchPeak.
func ScratchPeakBytes() int64 { return scratchPeakBytes.Load() }

// ResetScratchPeak rebases the peak watermark to the current live total so a
// benchmark can measure the footprint of just its own region of interest.
func ResetScratchPeak() { scratchPeakBytes.Store(scratchLiveBytes.Load()) }

// scratchClass returns the smallest class whose capacity holds n elements,
// or -1 when n exceeds the largest class.
func scratchClass(n int) int {
	for bits := scratchMinBits; bits <= scratchMaxBits; bits++ {
		if n <= 1<<bits {
			return bits
		}
	}
	return -1
}

// GetScratch returns a buffer with len(Data) == n from the arena. In steady
// state (a warm pool) it performs no heap allocation; a miss allocates the
// full size class so the buffer is reusable for any request of its class.
// Buffers are NOT zeroed.
func GetScratch(n int) *Scratch {
	class := scratchClass(n)
	if class < 0 {
		scratchOversize.Inc()
		scratchAcquired(4 * int64(n))
		return &Scratch{Data: make([]float32, n), class: -1}
	}
	scratchAcquired(4 << class)
	if s, ok := scratchPools[class-scratchMinBits].Get().(*Scratch); ok && s != nil {
		scratchHit.Inc()
		s.Data = s.Data[:n]
		return s
	}
	scratchMiss.Inc()
	return &Scratch{Data: make([]float32, n, 1<<class)[:n], class: class}
}

// PutScratch returns s to the arena. The caller must not touch s.Data after
// the call. Put of a nil scratch is a no-op so teardown paths can be
// unconditional.
func PutScratch(s *Scratch) {
	if s == nil {
		return
	}
	if s.class < 0 {
		scratchLiveBytes.Add(-4 * int64(len(s.Data)))
		return
	}
	scratchLiveBytes.Add(-4 << s.class)
	s.Data = s.Data[:0]
	scratchPools[s.class-scratchMinBits].Put(s)
}

// Zero clears the usable region. Kept as a method so callers that need
// zero-initialized scratch (gradient accumulators) state it explicitly.
func (s *Scratch) Zero() {
	for i := range s.Data {
		s.Data[i] = 0
	}
}
