//go:build linux

package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guarded is a page of test-owned memory followed by a PROT_NONE guard page:
// a slice that ends at the guard faults on any read or write past its last
// element, even one the kernel would have discarded.
type guarded struct{ mem []byte }

func newGuarded(t *testing.T) *guarded {
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
	return &guarded{mem: mem[:page]}
}

// floats returns the last n floats before the guard page.
func (g *guarded) floats(n int) []float32 {
	if 4*n > len(g.mem) {
		panic(fmt.Sprintf("guarded: %d floats do not fit a page", n))
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&g.mem[len(g.mem)-4*n])), n)
}

// TestKernelExtent pins the micro-kernels' extent contract: a call computes
// exactly the rows×cols block of C (cols 1–16; rows 1–6, one tile, and
// 7–13, a strip of two or three tiles whose last is an edge), reading no A
// row at or past rows and no B or C column at or past cols, and writing
// nothing outside the block. Every extent runs in all three modes, with A
// in place (row-major, or stored transposed: transA) and packed, and B in
// place (a row-major B's panels 8 floats apart) and packed (panels 8k
// floats apart), at each kernel level the host has (forEachKernel: the
// block goes through kernel6x16 where strictAVX512 is set, else through one
// kernel6x8 call per panel, as in runTiles). Each operand ends exactly at a
// PROT_NONE guard page, so a read or write past the extent faults instead of
// hiding in unstored lanes; C sits in a sentinel-filled buffer whose
// sentinels must all survive. The block must match, bit for bit, the full
// tiles goGemmKernel6x8 computes on padded copies of the operands. Values
// carry ±0, ±Inf, subnormals and NaNs.
func TestKernelExtent(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	memA, memB, memC := newGuarded(t), newGuarded(t), newGuarded(t)
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), math.Float32frombits(0x807fffff), float32(math.NaN())}
	rng := rand.New(rand.NewSource(29))
	fill := func(s []float32) {
		fillRand(rng, s)
		for i := range s {
			if rng.Intn(12) == 0 {
				s[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	sentinel := math.Float32frombits(0x7fa5a5a5) // a signalling-NaN pattern no kernel produces
	const ldc = 2*nr + 3

	forEachKernel(t, func(level string) {
		for _, k := range []int{1, 2, 5, 17} {
			for rows := 1; rows <= 2*mr+1; rows++ {
				tiles := (rows + mr - 1) / mr
				for cols := 1; cols <= 2*nr; cols++ {
					// The full operands the reference reads: mr×k A tiles
					// with (t, p, r) at t*mr*k + p*mr + r, two nr-wide B
					// panels with (p, c) at p*nr + c and nr*k + p*nr + c,
					// and 16-wide C rows.
					fullA := make([]float32, tiles*mr*k)
					fullB := make([]float32, 2*nr*k)
					fullC := make([]float32, tiles*mr*2*nr)
					fill(fullA)
					fill(fullB)
					fill(fullC)

					// A layouts: element (t, p, r) of tile t at
					// t*astep + p*ksa + r*lda.
					aLayouts := []struct {
						name            string
						lda, ksa, astep int
						reach           int // elements up to and including the last valid one
					}{
						{"rowmajor", k, 1, mr * k, rows * k},                                     // transA=false, m = rows
						{"transposed", 1, rows, mr, k * rows},                                    // transA=true, m = rows
						{"packed", 1, mr, mr * k, (rows-1)/mr*mr*k + (k-1)*mr + (rows-1)%mr + 1}, // packed tiles
					}
					bLayouts := []struct {
						name       string
						ldb, bstep int
						reach      int
					}{
						{"inplace", cols, nr, k * cols}, // row-major B, n = cols
						{"packed", nr, nr * k, packedReach(k, cols)},
					}
					for _, al := range aLayouts {
						a := memA.floats(al.reach)
						for i := 0; i < rows; i++ {
							for p := 0; p < k; p++ {
								a[i/mr*al.astep+p*al.ksa+i%mr*al.lda] = fullA[i/mr*mr*k+p*mr+i%mr]
							}
						}
						for _, bl := range bLayouts {
							b := memB.floats(bl.reach)
							for p := 0; p < k; p++ {
								for c := 0; c < cols; c++ {
									off := p*bl.ldb + c
									if c >= nr {
										off = bl.bstep + p*bl.ldb + c - nr
									}
									b[off] = fullB[(c/nr)*nr*k+p*nr+c%nr]
								}
							}
							for mode := 0; mode <= 2; mode++ {
								// C: one sentinel row's worth before the
								// block, sentinels in every row's tail, and
								// the last valid element at the guard.
								cBuf := memC.floats(ldc + (rows-1)*ldc + cols)
								for i := range cBuf {
									cBuf[i] = sentinel
								}
								c := cBuf[ldc:]
								for r := 0; r < rows; r++ {
									copy(c[r*ldc:r*ldc+cols], fullC[r*2*nr:])
								}
								kernelStrip(a, b, c, k, ldc, mode, al.lda, al.ksa, bl.ldb, bl.bstep, rows, cols, al.astep)

								want := append([]float32(nil), fullC...)
								for ti := 0; ti < tiles; ti++ {
									at, ct := fullA[ti*mr*k:], want[ti*mr*2*nr:]
									goGemmKernel6x8(at, fullB, ct, k, 2*nr, mode, 1, mr, nr, mr, nr)
									goGemmKernel6x8(at, fullB[nr*k:], ct[nr:], k, 2*nr, mode, 1, mr, nr, mr, nr)
								}
								what := func() string {
									return fmt.Sprintf("%s k=%d rows=%d cols=%d A %s B %s mode=%d", level, k, rows, cols, al.name, bl.name, mode)
								}
								for i, v := range cBuf {
									r, j := i/ldc-1, i%ldc
									if r < 0 || j >= cols {
										if math.Float32bits(v) != math.Float32bits(sentinel) {
											t.Fatalf("%s: sentinel at row %d col %d overwritten with %v", what(), r, j, v)
										}
										continue
									}
									if w := want[r*2*nr+j]; !sameBits(v, w) {
										t.Fatalf("%s: c[%d][%d] = %v (%#08x), full tile %v (%#08x)",
											what(), r, j, v, math.Float32bits(v), w, math.Float32bits(w))
									}
								}
							}
						}
					}
				}
			}
		}
	})
}

// packedReach is the elements a rows×cols region reads of packed B panels
// (ldb = nr, panels nr·k apart): up to the last valid column of the last
// k step in the last panel it touches.
func packedReach(k, cols int) int {
	if cols <= nr {
		return (k-1)*nr + cols
	}
	return nr*k + (k-1)*nr + cols - nr
}
