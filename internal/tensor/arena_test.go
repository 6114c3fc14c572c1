package tensor

import (
	"math"
	"runtime"
	"testing"
)

// TestArenaClasses pins the size-class geometry of both arenas: a class holds
// every request mapped to it, the class below would not, kernel scratch keeps
// the power-of-two capacities ScratchLiveBytes has always accounted, and a
// layer buffer's class exceeds the request by at most a quarter.
func TestArenaClasses(t *testing.T) {
	for _, a := range []*arena{kernelScratch, layerBuffers} {
		for c := 1; c < len(a.pools); c++ {
			if a.classCap(c) <= a.classCap(c-1) {
				t.Fatalf("octaveBits %d: class %d (%d) does not exceed class %d (%d)", a.octaveBits, c, a.classCap(c), c-1, a.classCap(c-1))
			}
		}
		if got := a.classCap(len(a.pools) - 1); got != 1<<scratchMaxBits {
			t.Fatalf("octaveBits %d: top class holds %d elements, want %d", a.octaveBits, got, 1<<scratchMaxBits)
		}
		sizes := []int{0, 1, 255, 256, 257, 319, 320, 321, 511, 512, 513, 1000, 4096, 4097, 5000, 100000, 1<<scratchMaxBits - 1, 1 << scratchMaxBits}
		for _, n := range sizes {
			c := a.classOf(n)
			if c < 0 || a.classCap(c) < n {
				t.Fatalf("octaveBits %d: %d elements mapped to class %d", a.octaveBits, n, c)
			}
			if c > 0 && a.classCap(c-1) >= n {
				t.Fatalf("octaveBits %d: %d elements mapped to class %d although class %d (%d) holds them", a.octaveBits, n, c, c-1, a.classCap(c-1))
			}
		}
		if c := a.classOf(1<<scratchMaxBits + 1); c != -1 {
			t.Fatalf("octaveBits %d: an oversized request mapped to class %d", a.octaveBits, c)
		}
	}
	for c := range kernelScratch.pools {
		if got := kernelScratch.classCap(c); got&(got-1) != 0 {
			t.Fatalf("kernel scratch class %d holds %d elements, not a power of two", c, got)
		}
	}
	for n := 1 << scratchMinBits; n < 1<<16; n += 37 {
		if got := layerBuffers.classCap(layerBuffers.classOf(n)); 4*got > 5*n+4 {
			t.Fatalf("layer buffer of %d elements occupies %d: more than a quarter over", n, got)
		}
	}
}

// TestBorrowReleaseRefit covers the loan mechanics: shapes, in-place re-shape
// over a large-enough array, growth through the arena, and that only the
// header Borrow returned can hand an array back.
func TestBorrowReleaseRefit(t *testing.T) {
	b := Borrow(3, 100)
	if b.Rank() != 2 || b.Dim(0) != 3 || b.Dim(1) != 100 || len(b.Data) != 300 {
		t.Fatalf("Borrow(3, 100): shape %v, %d elements", b.Shape(), len(b.Data))
	}
	if c := cap(b.Data); c < 320 || c >= 640 {
		t.Fatalf("Borrow(3, 100): capacity %d, want the 320-element class or a pooled array below twice that", c)
	}
	first := &b.Data[0]
	if same := Refit(b, 3, 100); same != b {
		t.Fatal("Refit to the same shape returned another tensor")
	}
	small := Refit(b, 2, 5, 10)
	if small != b || small.Rank() != 3 || small.Dim(2) != 10 || len(small.Data) != 100 || &small.Data[0] != first {
		t.Fatalf("Refit to a smaller shape must re-shape in place; got shape %v over another array: %v", small.Shape(), &small.Data[0] != first)
	}
	if back := Refit(small, 320); back != b || len(back.Data) != 320 {
		t.Fatalf("Refit up to the array's capacity must stay in place; got %d elements", len(back.Data))
	}
	grown := Refit(b, 40, 20)
	if grown.Dim(0) != 40 || grown.Dim(1) != 20 || len(grown.Data) != 800 || cap(grown.Data) < 800 {
		t.Fatalf("Refit beyond capacity: shape %v, %d/%d elements", grown.Shape(), len(grown.Data), cap(grown.Data))
	}
	if fresh := Refit(nil, 7); fresh.Dim(0) != 7 || len(fresh.Data) != 7 {
		t.Fatalf("Refit(nil, 7): shape %v", fresh.Shape())
	}

	// Views, plain tensors and nil are not loans.
	view := grown.Reshape(800)
	Release(view)
	Release(New(300))
	Release(nil)
	if grown.Data == nil || view.Data == nil {
		t.Fatal("releasing a view ended the loan of the tensor it views")
	}
	Release(grown)
	if grown.Data != nil {
		t.Fatal("Release left the tensor pointing at the array it returned")
	}
	Release(grown) // a second Release finds no loan to end

	// A plain tensor re-fits in place too, and grows into a loan.
	p := New(4, 4)
	if q := Refit(p, 2, 2); q != p || len(q.Data) != 4 {
		t.Fatal("Refit of a plain tensor to a smaller shape must stay in place")
	}
	if q := Refit(p, 300); q == p || len(q.Data) != 300 {
		t.Fatal("Refit of a plain tensor beyond its capacity must borrow")
	}

	huge := Borrow(1<<scratchMaxBits + 1)
	if len(huge.Data) != 1<<scratchMaxBits+1 {
		t.Fatalf("oversized Borrow: %d elements", len(huge.Data))
	}
	Release(huge) // left to the GC, not a pool poisoning

	if !raceEnabled { // under -race sync.Pool drops entries at random
		// First fit: a pooled array below twice the request serves it; one
		// at twice the request or above is left for a request of its size.
		runtime.GC()
		runtime.GC() // two collections empty every pool
		near := Borrow(448)
		arr := &near.Data[0]
		Release(near)
		got := Borrow(300)
		if &got.Data[0] != arr || cap(got.Data) != 448 || len(got.Data) != 300 {
			t.Fatal("Borrow(300) must take the pooled 448-element array before allocating")
		}
		far := Borrow(640)
		arr = &far.Data[0]
		Release(far)
		if again := Borrow(300); &again.Data[0] == arr {
			t.Fatal("Borrow(300) took an array of more than twice its size")
		}
	}

	h := FromSliceInto(nil, make([]float32, 6), 2, 3)
	data := make([]float32, 12)
	if h2 := FromSliceInto(h, data, 3, 4); h2 != h || h.Dim(0) != 3 || h.Dim(1) != 4 || &h.Data[0] != &data[0] {
		t.Fatalf("FromSliceInto must re-point the header it is given; got shape %v", h.Shape())
	}
}

// TestReleasedArraysArePoisonedOnRequest covers the test seam the recycling
// tests in nn, modular and fed run under: with it on, an array is all NaN by
// the time the next borrower can see it.
func TestReleasedArraysArePoisonedOnRequest(t *testing.T) {
	PoisonReleasedForTests(true)
	defer PoisonReleasedForTests(false)
	b := Borrow(300)
	for i := range b.Data {
		b.Data[i] = 1
	}
	whole := b.Data[:cap(b.Data)]
	Release(b)
	for i, v := range whole {
		if !math.IsNaN(float64(v)) {
			t.Fatalf("element %d of a released array reads %v, want NaN", i, v)
		}
	}
	s := GetScratch(300)
	s.Zero()
	whole = s.Data[:cap(s.Data)]
	PutScratch(s)
	if !math.IsNaN(float64(whole[0])) {
		t.Fatal("kernel scratch is not poisoned on its way back")
	}
}

// TestBorrowZeroAllocSteadyState: once the arena is warm, a loan costs no
// allocation — not for the array, and not for the tensor header, which lives
// inside the pooled block.
func TestBorrowZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates (and sync.Pool drops entries at random); alloc counts are meaningless under -race")
	}
	like := New(5, 8, 4, 4)
	cycle := func() {
		a := Borrow(16, 8, 4, 4)
		b := Refit(nil, like.Shape()...)
		b = Refit(b, 3, 8, 4, 4)
		Release(a)
		Release(b)
	}
	cycle()
	var allocs float64
	for attempt := 0; attempt < 5; attempt++ { // a GC in between empties the pools once
		if allocs = testing.AllocsPerRun(20, cycle); allocs == 0 {
			break
		}
	}
	if allocs != 0 {
		t.Errorf("Borrow/Refit/Release cycle: %v allocs/op in steady state, want 0", allocs)
	}
}
