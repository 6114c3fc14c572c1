package tensor

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Scratch is a pooled float32 buffer drawn from one of the package arenas.
// Contents are unspecified on Get; every consumer must fully overwrite (or
// explicitly zero) the region it uses before reading it back. See
// docs/PERF.md for the ownership rules.
type Scratch struct {
	// Data is the usable region, sized to the Get request.
	Data []float32
	// class indexes the owning arena's pools, or is -1 for an oversized
	// one-shot buffer that is not returned to a pool.
	class int
	// lent is the header Borrow hands out over Data, kept inside the block so
	// a lent tensor costs no allocation of its own.
	lent Tensor
}

// Every size-classed pool covers requests between 1<<scratchMinBits and
// 1<<scratchMaxBits elements. Requests above the top class fall back to a
// plain allocation so a single huge call cannot pin memory in the pools
// forever (sync.Pool entries are additionally dropped by the GC).
const (
	scratchMinBits = 8
	scratchMaxBits = 24
)

// arena is a size-classed free list of float32 arrays: one sync.Pool per
// class, 1<<octaveBits classes per power of two. A request is served by the
// first pooled array between its own class and twice its size; a miss
// allocates the full class so the array serves any later request of its
// class. The GC empties the pools, so an arena never holds more than what was
// returned since the last-but-one collection.
type arena struct {
	octaveBits          uint
	pools               []sync.Pool
	hit, miss, oversize *obs.Counter
}

func newArena(octaveBits uint, hit, miss, oversize *obs.Counter) *arena {
	return &arena{
		octaveBits: octaveBits,
		pools:      make([]sync.Pool, (scratchMaxBits-scratchMinBits)<<octaveBits+1),
		hit:        hit, miss: miss, oversize: oversize,
	}
}

// The two arenas. Kernel scratch lives for part of one kernel call, is sized
// by the blocking parameters and is what ScratchLiveBytes accounts, so it
// keeps power-of-two classes. Layer buffers are lent for a whole training or
// evaluation bout (Borrow/Release) and stay live between steps, where a
// power-of-two class would pin up to twice the request on every allocation:
// quarter-octave classes bound a fresh array's excess at 25 %.
var (
	kernelScratch = newArena(0, scratchHit, scratchMiss, scratchOversize)
	layerBuffers  = newArena(2, bufferHit, bufferMiss, bufferOversize)
)

// classCap returns the element capacity of class c.
func (a *arena) classCap(c int) int {
	per := 1 << a.octaveBits
	return (per + c&(per-1)) << (scratchMinBits - a.octaveBits + (uint(c) >> a.octaveBits))
}

// classOf returns the smallest class whose capacity holds n elements, or -1
// when n exceeds the largest class.
func (a *arena) classOf(n int) int {
	if n <= 1<<scratchMinBits {
		return 0
	}
	b := uint(bits.Len(uint(n-1))) - 1 // 1<<b < n <= 1<<(b+1)
	step := b - a.octaveBits           // log2 of the class spacing inside this octave
	c := int(b-scratchMinBits)<<a.octaveBits + (n-(1<<b)+(1<<step)-1)>>step
	if c >= len(a.pools) {
		return -1
	}
	return c
}

// get returns a block with len(Data) == n. In steady state (a warm pool) it
// performs no heap allocation.
func (a *arena) get(n int) *Scratch {
	class := a.classOf(n)
	if class < 0 {
		a.oversize.Inc()
		return &Scratch{Data: make([]float32, n), class: -1}
	}
	// First fit from the request's own class up to, not including, the class
	// an octave above: a pooled array less than twice the request serves it
	// before a fresh one is allocated. Devices' sub-models differ in shape, so
	// without this every new shape adds arrays to the pools while those of
	// the last shape sit idle until the collector drops them — on
	// sim_cnn_sync the difference between a peak RSS a tenth above that of
	// allocating per bout and a tenth below it (docs/PERF.md).
	for c := class; c < class+1<<a.octaveBits && c < len(a.pools); c++ {
		if s, ok := a.pools[c].Get().(*Scratch); ok && s != nil {
			a.hit.Inc()
			s.Data = s.Data[:n]
			return s
		}
	}
	a.miss.Inc()
	return &Scratch{Data: make([]float32, n, a.classCap(class)), class: class}
}

// put returns s to its pool; an oversized block is left to the GC.
func (a *arena) put(s *Scratch) {
	if s.class < 0 {
		return
	}
	if poisonReleased.Load() {
		full, nan := s.Data[:cap(s.Data)], float32(math.NaN())
		for i := range full {
			full[i] = nan
		}
	}
	s.Data = s.Data[:0]
	a.pools[s.class].Put(s)
}

// poisonReleased makes every array NaN on its way back into a pool, so a
// consumer that reads a recycled buffer before writing it computes NaN
// instead of silently reusing its predecessor's numbers.
var poisonReleased atomic.Bool

// PoisonReleasedForTests switches the NaN fill of returned arrays. It exists
// for tests of the "contents unspecified" contract and is reachable from no
// flag, environment variable or configuration.
func PoisonReleasedForTests(on bool) { poisonReleased.Store(on) }

// Outstanding-bytes accounting of kernel scratch: every live Scratch
// contributes its backing capacity (the full size class, or the exact length
// for oversized buffers) between Get and Put. The peak watermark is the
// measured footprint of a kernel's working set, and what proves the
// implicit-GEMM conv deleted the column matrix rather than just relocating it
// (TestConvGemmScratchAccounting). Plain atomics: two adds and a CAS loop per
// Get/Put, no locks, no allocations, never read by kernel code. Layer
// buffers (Borrow) are not part of it: they are a model's working set, not a
// kernel's, and a model that is dropped never reports them back.
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

// GetScratch returns a buffer with len(Data) == n from the kernel arena. In
// steady state (a warm pool) it performs no heap allocation; a miss allocates
// the full size class so the buffer is reusable for any request of its class.
// Buffers are NOT zeroed.
func GetScratch(n int) *Scratch {
	s := kernelScratch.get(n)
	scratchAcquired(4 * int64(cap(s.Data)))
	return s
}

// PutScratch returns s to the arena. The caller must not touch s.Data after
// the call. Put of a nil scratch is a no-op so teardown paths can be
// unconditional.
func PutScratch(s *Scratch) {
	if s == nil {
		return
	}
	scratchLiveBytes.Add(-4 * int64(cap(s.Data)))
	kernelScratch.put(s)
}

// Zero clears the usable region. Kept as a method so callers that need
// zero-initialized scratch (gradient accumulators) state it explicitly.
func (s *Scratch) Zero() {
	for i := range s.Data {
		s.Data[i] = 0
	}
}

// Borrow lends a tensor of the given shape whose backing array comes from the
// layer-buffer arena. Its contents are unspecified: the borrower overwrites
// or zeroes all of it before reading. The loan lasts for one training or
// evaluation bout; Release ends it. A borrowed tensor that is dropped is
// collected like any other, but one a kept model still points to is pinned
// for as long as the model is kept: the loops that run a bout release what
// their model borrowed (nn.ReleaseBuffers).
func Borrow(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dimension in Borrow")
		}
		n *= d
	}
	s := layerBuffers.get(n)
	t := &s.lent
	t.Data = s.Data
	t.shape = append(t.shape[:0], shape...)
	t.home = s
	return t
}

// Release ends a loan: t's backing array goes back to the arena for the next
// Borrow, and t must not be used afterwards — neither its elements nor its
// shape. Release of nil, of a tensor that was not borrowed (New, FromSlice)
// and of a view of a borrowed tensor (Reshape) is a no-op, so only the one
// header Borrow returned can hand an array back, and teardown paths can be
// unconditional.
func Release(t *Tensor) {
	if t == nil || t.home == nil {
		return
	}
	s := t.home
	t.Data, t.home = nil, nil
	layerBuffers.put(s)
}

// Refit returns a tensor of the given shape for a caller that owns t and no
// longer needs its contents: t itself when it already has that shape, t
// re-shaped in place when its backing array is large enough, else a borrowed
// tensor with t released. Either way the elements are unspecified. t may be
// nil. The hit and in-place paths allocate nothing.
func Refit(t *Tensor, shape ...int) *Tensor {
	if t == nil {
		return Borrow(shape...)
	}
	n, same := 1, len(shape) == len(t.shape)
	for i, d := range shape {
		n *= d
		same = same && t.shape[i] == d
	}
	if same {
		return t
	}
	if cap(t.Data) < n {
		Release(t)
		return Borrow(shape...)
	}
	t.Data = t.Data[:n]
	t.shape = append(t.shape[:0], shape...)
	return t
}
