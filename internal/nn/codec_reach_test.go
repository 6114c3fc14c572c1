//go:build linux

package nn

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/tensor"
)

// guardedPage returns a page of test-owned memory followed by a PROT_NONE
// guard page: an operand that ends at the guard faults on any read or write
// past its last element.
func guardedPage(t *testing.T) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Errorf("munmap: %v", err)
		}
	})
	return mem[:page]
}

// guardedFloats returns the last n floats before page's guard.
func guardedFloats(page []byte, n int) []float32 {
	return unsafe.Slice((*float32)(unsafe.Pointer(&page[len(page)-4*n])), n)
}

// TestCodecTwinReach holds the twins to the wrappers' reach check: every
// operand of DiffRange, Quantize8Range and AddInto — values, reference,
// difference, codes, output — ends exactly at a PROT_NONE guard page, so a
// twin that reads or writes one element past its slice faults. Every length
// 1–70, and the outputs must still match the Go loops bit for bit.
func TestCodecTwinReach(t *testing.T) {
	if !tensor.HasAVX2() {
		t.Skip("no AVX2 on this host: the Go loops are the only path")
	}
	pVals, pRef, pDiff, pCodes, pOut := guardedPage(t), guardedPage(t), guardedPage(t), guardedPage(t), guardedPage(t)
	rng := rand.New(rand.NewSource(53))
	for n := 1; n <= 70; n++ {
		vals, ref := make([]float32, n), make([]float32, n)
		for i := range vals {
			ref[i] = float32(rng.NormFloat64())
			vals[i] = ref[i] + float32(rng.NormFloat64()*0.1)
		}
		var want codecWalk
		withCodecTwins(false, func() { want = walkChunk(vals, ref) })

		gVals, gRef, gDiff, gOut := guardedFloats(pVals, n), guardedFloats(pRef, n), guardedFloats(pDiff, n), guardedFloats(pOut, n)
		gCodes := pCodes[len(pCodes)-n:]
		copy(gVals, vals)
		copy(gRef, ref)
		got := codecWalk{diff: gDiff, recon: gOut}
		withCodecTwins(true, func() {
			got.lo, got.hi = DiffRange(gDiff, gVals, gRef)
			got.q = Quantize8Range(gCodes, gDiff, got.lo, got.hi)
			got.q.AddInto(gOut, gRef)
			got.inPlace = gRef
			got.q.AddInto(gRef, gRef)
		})
		if d := diffWalks(got, want); d != "" {
			t.Fatalf("n=%d: %s", n, d)
		}
	}
}
