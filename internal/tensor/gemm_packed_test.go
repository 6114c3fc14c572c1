package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// fillRand populates a slice with values in (-1, 1).
func fillRand(rng *rand.Rand, s []float32) {
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
}

// gemmCase runs one (variant, size, alpha, beta) comparison of the public
// Gemm against GemmNaive, and — when the combination is packed-eligible —
// of gemmPacked directly against the naive kernel (covering sizes the
// dispatcher would route to the naive path, so edge tiles get exercised at
// n < nr too). Every operand is exactly as long as its shape, so a read past
// one panics under the portable kernel. All comparisons are bitwise: the
// packed kernel's summation chains replicate the reference ordering exactly.
func gemmCase(t *testing.T, rng *rand.Rand, transA, transB bool, m, n, k int, alpha, beta float32) {
	t.Helper()
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	fillRand(rng, a)
	fillRand(rng, b)
	fillRand(rng, c)
	gemmCompare(t, transA, transB, m, n, k, alpha, a, b, beta, c)
}

// sameBits reports whether x and y have the same bit pattern, or are both
// NaN: a NaN's sign and payload are not part of the contract.
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || x != x && y != y
}

// gemmCompare is gemmCase's comparison on given operands; c is left as it
// was.
func gemmCompare(t *testing.T, transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	t.Helper()
	want := append([]float32(nil), c...)
	GemmNaive(transA, transB, m, n, k, alpha, a, b, beta, want)

	cGot := append([]float32(nil), c...)
	Gemm(transA, transB, m, n, k, alpha, a, b, beta, cGot)
	for i := range want {
		if !sameBits(want[i], cGot[i]) {
			t.Fatalf("Gemm transA=%v transB=%v m=%d n=%d k=%d alpha=%v beta=%v: c[%d]=%v, naive %v",
				transA, transB, m, n, k, alpha, beta, i, cGot[i], want[i])
		}
	}

	if alpha == 1 && (beta == 0 || beta == 1) && k > 0 && m > 0 && n > 0 {
		cPacked := append([]float32(nil), c...)
		gemmPacked(transA, transB, m, n, k, a, b, beta, cPacked)
		for i := range want {
			if !sameBits(want[i], cPacked[i]) {
				t.Fatalf("gemmPacked transA=%v transB=%v m=%d n=%d k=%d beta=%v: c[%d]=%v, naive %v",
					transA, transB, m, n, k, beta, i, cPacked[i], want[i])
			}
		}
	}
}

// gemmDiffSizes and gemmDiffScalars are the structured differential table:
// odd/prime and tile-boundary sizes in 1..67, alpha/beta ∈ {0, 1, 0.5}.
var (
	gemmDiffSizes = [][3]int{
		{1, 1, 1}, {1, 8, 1}, {2, 3, 5}, {7, 5, 9}, {5, 7, 11},
		{6, 8, 13}, {6, 8, 1}, {12, 16, 8}, {13, 17, 19}, {17, 13, 23},
		{23, 29, 31}, {31, 37, 7}, {37, 31, 41}, {43, 47, 3}, {48, 64, 32},
		{53, 59, 61}, {61, 67, 2}, {67, 61, 53}, {64, 48, 67}, {1, 67, 67},
		{67, 1, 67}, {67, 67, 1}, {6, 16, 67}, {18, 24, 66},
		// The HAR MLP's heaviest calls (batch 16: 6 + 6 + 4 rows).
		{16, 48, 64}, {16, 64, 48}, {48, 64, 16}, {16, 24, 64}, {16, 18, 48}, {16, 48, 18},
	}
	gemmDiffScalars = []float32{0, 1, 0.5}
)

// TestGemmPackedDifferential pins the packed kernel against the retained
// naive reference across all four transpose variants of the table above,
// then on non-finite operands: an Inf or NaN on either side meeting a zero
// on the other must give the same NaN (or Inf) on both paths, in full and
// edge tiles alike.
func TestGemmPackedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sz := range gemmDiffSizes {
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				for _, alpha := range gemmDiffScalars {
					for _, beta := range gemmDiffScalars {
						gemmCase(t, rng, ta, tb, sz[0], sz[1], sz[2], alpha, beta)
					}
				}
			}
		}
	}

	inf := float32(math.Inf(1))
	for _, sz := range [][3]int{{8, 16, 32}, {16, 18, 48}, {16, 6, 48}} {
		m, n, k := sz[0], sz[1], sz[2]
		// (i, p, j): op(A)[i][p] meets op(B)[p][j] in the chain of C[i][j].
		for _, at := range [][3]int{{0, 0, 0}, {m - 1, k / 2, n - 1}} {
			i, p, j := at[0], at[1], at[2]
			for _, v := range []float32{inf, -inf, float32(math.NaN())} {
				for _, onA := range []bool{false, true} {
					for _, ta := range []bool{false, true} {
						for _, tb := range []bool{false, true} {
							a := make([]float32, m*k)
							b := make([]float32, k*n)
							c := make([]float32, m*n)
							fillRand(rng, a)
							fillRand(rng, b)
							fillRand(rng, c)
							ai, bi := i*k+p, p*n+j
							if ta {
								ai = p*m + i
							}
							if tb {
								bi = j*k + p
							}
							a[ai], b[bi] = 0, v
							if onA {
								a[ai], b[bi] = v, 0
							}
							for _, beta := range []float32{0, 1} {
								gemmCompare(t, ta, tb, m, n, k, 1, a, b, beta, c)
							}
						}
					}
				}
			}
		}
	}
}

// TestGemmPackedFuzz hammers random shapes in 1..67 with random variants;
// a light randomized sweep on top of the structured table above.
func TestGemmPackedFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	iters := 150
	if testing.Short() {
		iters = 30
	}
	for it := 0; it < iters; it++ {
		m := 1 + rng.Intn(67)
		n := 1 + rng.Intn(67)
		k := 1 + rng.Intn(67)
		alpha := []float32{0, 1, 0.5}[rng.Intn(3)]
		beta := []float32{0, 1, 0.5}[rng.Intn(3)]
		gemmCase(t, rng, rng.Intn(2) == 1, rng.Intn(2) == 1, m, n, k, alpha, beta)
	}
}

// TestGemmValidation covers the shape-carrying operand checks for all four
// transpose variants: an undersized operand must panic with a message naming
// the operand and the required extent, not an index-out-of-range from the
// middle of the kernel.
func TestGemmValidation(t *testing.T) {
	const m, n, k = 6, 8, 5
	good := func(sz int) []float32 { return make([]float32, sz) }
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			cases := []struct {
				name    string
				a, b, c []float32
				msgPart string
			}{
				{"shortA", good(m*k - 1), good(k * n), good(m * n), "A operand too short"},
				{"shortB", good(m * k), good(k*n - 1), good(m * n), "B operand too short"},
				{"shortC", good(m * k), good(k * n), good(m*n - 1), "C operand too short"},
			}
			for _, tc := range cases {
				name := fmt.Sprintf("%s/transA=%v/transB=%v", tc.name, ta, tb)
				func() {
					defer func() {
						r := recover()
						if r == nil {
							t.Errorf("%s: no panic", name)
							return
						}
						msg, ok := r.(string)
						if !ok || !strings.Contains(msg, tc.msgPart) {
							t.Errorf("%s: panic %v does not mention %q", name, r, tc.msgPart)
						}
						// The message must carry the shape, not just "too small".
						if !strings.Contains(msg, "=") {
							t.Errorf("%s: panic %q carries no shape info", name, msg)
						}
					}()
					Gemm(ta, tb, m, n, k, 1, tc.a, tc.b, 0, tc.c)
				}()
			}
		}
	}
}

// TestKernel6x8AsmMatchesGo pins the AVX assembly kernel against the
// portable reference, bitwise, on full 6×8 tiles (TestKernelExtent covers
// every smaller extent), across all three modes, several k values and
// ldc layouts, and every operand layout the GEMM hands it: a packed A tile
// (lda, ksa) = (1, mr), a tile of a row-major A (k, 1) and of a transposed A
// (1, m), a packed B panel (ldb = nr) and a panel of a row-major B (ldb = n).
// Each operand is exactly as long as the kernel's reach, so the portable
// kernel panics on a read past it. Where kernel6x8 is the portable kernel
// itself (non-amd64, or amd64 without AVX) the two are the same function and
// the test degenerates to a smoke test.
func TestKernel6x8AsmMatchesGo(t *testing.T) {
	if !strictAVX {
		t.Logf("kernel mode %s: smoke-testing the portable kernel against itself", KernelMode())
	}
	const m, n = 16, 24 // the extents a transposed A and a row-major B are tiles of
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 7, 16, 64, 129} {
		aLayouts := []struct {
			name     string
			lda, ksa int
		}{{"packed", 1, mr}, {"rowmajor", k, 1}, {"transposed", 1, m}}
		for _, al := range aLayouts {
			for _, ldb := range []int{nr, n} {
				for _, ldc := range []int{nr, nr + 3, 40} {
					for mode := 0; mode <= 2; mode++ {
						a := make([]float32, (k-1)*al.ksa+(mr-1)*al.lda+1)
						b := make([]float32, (k-1)*ldb+nr)
						cAsm := make([]float32, (mr-1)*ldc+nr)
						fillRand(rng, a)
						fillRand(rng, b)
						fillRand(rng, cAsm)
						cGo := append([]float32(nil), cAsm...)
						kernel6x8(a, b, cAsm, k, ldc, mode, al.lda, al.ksa, ldb, mr, nr, 0)
						goGemmKernel6x8(a, b, cGo, k, ldc, mode, al.lda, al.ksa, ldb, mr, nr)
						for i := range cGo {
							if cAsm[i] != cGo[i] {
								t.Fatalf("k=%d A %s ldb=%d ldc=%d mode=%d: c[%d] asm=%v go=%v",
									k, al.name, ldb, ldc, mode, i, cAsm[i], cGo[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestKernel6x16MatchesGo pins the 512-bit kernel on a full 6×16 region
// against two portable 6×8 kernel calls, bitwise, in all three modes and
// at every k the census of kernel calls turns up (k ≤ 16 for most), for
// each A layout the GEMM hands it (packed, row-major, transposed) and both
// B layouts: panels of a row-major B read in place (the second panel 8
// floats on, ldb = n) and packed panels (the second 8k floats on,
// ldb = nr). Operands and C carry
// ±0, ±Inf, subnormals and NaNs among their random values, so a swapped
// operand or a fused multiply-add shows up. B is exactly as long as the two
// panels' reach at k ≥ 1, so the portable calls panic on a read past it.
func TestKernel6x16MatchesGo(t *testing.T) {
	if !strictAVX512 {
		t.Skipf("no AVX-512F/DQ with OS ZMM state on this host (features %s): the 6×16 kernel is never selected", CPUFeatures())
	}
	const m, n = 16, 24 // the extents a transposed A and a row-major B are tiles of
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), math.Float32frombits(0x807fffff), float32(math.NaN()),
		math.Float32frombits(0xffc00001)}
	rng := rand.New(rand.NewSource(13))
	fill := func(s []float32) {
		fillRand(rng, s)
		for i := range s {
			if rng.Intn(10) == 0 {
				s[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	for _, k := range []int{0, 1, 2, 3, 7, 16, 67, 144} {
		kk := max(k, 1) // k = 0 reads no operand, but the kernels take &x[0]
		aLayouts := []struct {
			name     string
			lda, ksa int
		}{{"packed", 1, mr}, {"rowmajor", k, 1}, {"transposed", 1, m}}
		bLayouts := []struct {
			name       string
			ldb, bstep int
		}{{"inplace", n, nr}, {"packed", nr, nr * k}}
		for _, al := range aLayouts {
			for _, bl := range bLayouts {
				for _, ldc := range []int{2 * nr, 2*nr + 3, 40} {
					for mode := 0; mode <= 2; mode++ {
						a := make([]float32, (kk-1)*al.ksa+(mr-1)*al.lda+1)
						b := make([]float32, bl.bstep+(kk-1)*bl.ldb+nr)
						cAsm := make([]float32, (mr-1)*ldc+2*nr)
						fill(a)
						fill(b)
						fill(cAsm)
						cGo := append([]float32(nil), cAsm...)
						kernel6x16(a, b, cAsm, k, ldc, mode, al.lda, al.ksa, bl.ldb, bl.bstep, mr, 2*nr, 0)
						goGemmKernel6x8(a, b, cGo, k, ldc, mode, al.lda, al.ksa, bl.ldb, mr, nr)
						goGemmKernel6x8(a, b[bl.bstep:], cGo[nr:], k, ldc, mode, al.lda, al.ksa, bl.ldb, mr, nr)
						for i := range cGo {
							if !sameBits(cAsm[i], cGo[i]) {
								t.Fatalf("k=%d A %s B %s ldc=%d mode=%d: c[%d] asm=%v (%#08x) go=%v (%#08x)",
									k, al.name, bl.name, ldc, mode, i, cAsm[i], math.Float32bits(cAsm[i]),
									cGo[i], math.Float32bits(cGo[i]))
							}
						}
					}
				}
			}
		}
	}
}

// kernelLevels are the kernel selections a host can run: the portable
// kernel, the 256-bit AVX kernel, and the 512-bit pair kernel beside it.
var kernelLevels = []struct {
	name        string
	avx, avx512 bool
}{{"portable", false, false}, {"avx256", true, false}, {"avx512", true, true}}

// forEachKernel runs fn under each kernel level this CPU has, logging the
// ones it lacks, and restores the selection package init made.
func forEachKernel(t testing.TB, fn func(level string)) {
	avx, avx512 := strictAVX, strictAVX512
	defer func() { strictAVX, strictAVX512 = avx, avx512 }()
	for _, l := range kernelLevels {
		if l.avx && !avx || l.avx512 && !avx512 {
			t.Logf("kernel level %s skipped: the CPU or OS lacks it (features %s)", l.name, CPUFeatures())
			continue
		}
		strictAVX, strictAVX512 = l.avx, l.avx512
		fn(l.name)
	}
}

// TestGemmPortableMatchesAVX runs whole GEMMs and convolutions under each
// kernel level the host has — portable, 256-bit and 512-bit — and requires
// every level's outputs bitwise equal to the portable ones, so the fallback
// an amd64 CPU without AVX (or without AVX-512) gets is exercised on hosts
// that have it: the Gemm table of TestGemmPackedDifferential (Gemm, plus
// gemmPacked directly where the dispatcher would go naive, so edge tiles
// count at n < nr too) and ConvGemm/ConvGemmBack over
// TestConvGemmExperimentShapes' table.
func TestGemmPortableMatchesAVX(t *testing.T) {
	if !strictAVX {
		t.Skipf("kernel mode %s: no AVX on this host, kernel6x8 already is the portable kernel", KernelMode())
	}
	// diff runs fn under each kernel level; fn returns every buffer it wrote.
	diff := func(fn func() [][]float32, format string, args ...any) {
		t.Helper()
		var portable [][]float32
		forEachKernel(t, func(level string) {
			got := fn()
			if portable == nil {
				portable = got
				return
			}
			for o := range got {
				for i := range got[o] {
					if got[o][i] != portable[o][i] {
						t.Fatalf(format+": output %d [%d] %s=%v portable=%v",
							append(args, o, i, level, got[o][i], portable[o][i])...)
					}
				}
			}
		})
	}

	rng := rand.New(rand.NewSource(17))
	for _, sz := range gemmDiffSizes {
		m, n, k := sz[0], sz[1], sz[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		c0 := make([]float32, m*n)
		fillRand(rng, a)
		fillRand(rng, b)
		fillRand(rng, c0)
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				for _, beta := range gemmDiffScalars {
					diff(func() [][]float32 {
						c := append([]float32(nil), c0...)
						Gemm(ta, tb, m, n, k, 1, a, b, beta, c)
						outs := [][]float32{c}
						if beta != 0.5 { // gemmPacked takes beta ∈ {0, 1} only
							cp := append([]float32(nil), c0...)
							gemmPacked(ta, tb, m, n, k, a, b, beta, cp)
							outs = append(outs, cp)
						}
						return outs
					}, "Gemm transA=%v transB=%v m=%d n=%d k=%d beta=%v", ta, tb, m, n, k, beta)
				}
			}
		}
	}

	for _, c := range convExperimentCases {
		g := c.geom()
		w := make([]float32, c.outC*g.Kdim())
		src := make([]float32, g.Channels*g.Height*g.Width)
		grad := make([]float32, c.outC*g.Cols())
		dw0 := make([]float32, len(w))
		fillRand(rng, w)
		fillRand(rng, src)
		fillRand(rng, grad)
		fillRand(rng, dw0)
		diff(func() [][]float32 {
			out := make([]float32, len(grad))
			dw := append([]float32(nil), dw0...)
			dx := make([]float32, len(src))
			ConvGemm(w, c.outC, src, g, out)
			ConvGemmBack(w, c.outC, src, g, grad, dw, dx)
			return [][]float32{out, dw, dx}
		}, "ConvGemm fwd+back outC=%d %+v", c.outC, g)
	}
}

// TestGemmPackedParallelMatchesSerial verifies the 2-D grid partitioning is
// invisible in the bits: every C element's summation chain lives entirely
// inside one tile, so any worker count produces identical output.
func TestGemmPackedParallelMatchesSerial(t *testing.T) {
	old := Parallelism
	defer func() { Parallelism = old }()
	rng := rand.New(rand.NewSource(99))
	for _, sz := range [][3]int{{96, 96, 64}, {61, 83, 37}, {128, 24, 48}} {
		m, n, k := sz[0], sz[1], sz[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		fillRand(rng, a)
		fillRand(rng, b)
		Parallelism = 1
		serial := make([]float32, m*n)
		gemmPacked(false, false, m, n, k, a, b, 0, serial)
		for _, workers := range []int{2, 3, 8} {
			Parallelism = workers
			par := make([]float32, m*n)
			gemmPacked(false, false, m, n, k, a, b, 0, par)
			for i := range serial {
				if serial[i] != par[i] {
					t.Fatalf("m=%d n=%d k=%d workers=%d: c[%d] differs", m, n, k, workers, i)
				}
			}
		}
	}
}

// TestScratchArena covers the size-class mechanics of the scratch arena.
func TestScratchArena(t *testing.T) {
	s := GetScratch(100)
	if len(s.Data) != 100 {
		t.Fatalf("GetScratch(100): len=%d", len(s.Data))
	}
	if cap(s.Data) < 256 {
		t.Fatalf("GetScratch(100): cap=%d, want at least the smallest class (256)", cap(s.Data))
	}
	PutScratch(s)
	s2 := GetScratch(200)
	if len(s2.Data) != 200 {
		t.Fatalf("GetScratch(200) after Put: len=%d", len(s2.Data))
	}
	PutScratch(s2)

	big := GetScratch(1 << 25) // above the top class: one-shot allocation
	if len(big.Data) != 1<<25 {
		t.Fatalf("oversized GetScratch: len=%d", len(big.Data))
	}
	PutScratch(big) // must be a no-op, not a pool poisoning
	PutScratch(nil) // nil Put is allowed

	z := GetScratch(64)
	for i := range z.Data {
		z.Data[i] = 3
	}
	z.Zero()
	for i, v := range z.Data {
		if v != 0 {
			t.Fatalf("Zero left z.Data[%d]=%v", i, v)
		}
	}
	PutScratch(z)
}

// TestArenaConcurrentStress exercises concurrent Get/Put plus concurrent
// packed GEMMs under -race: distinct goroutines must never observe each
// other's scratch. Each worker writes its own tag across its buffer, yields
// to the scheduler via real GEMM work, then verifies the tag.
func TestArenaConcurrentStress(t *testing.T) {
	const workers = 8
	const iters = 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tag float32) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tag)))
			const m, n, k = 24, 32, 16
			a := make([]float32, m*k)
			b := make([]float32, k*n)
			c := make([]float32, m*n)
			want := make([]float32, m*n)
			fillRand(rng, a)
			fillRand(rng, b)
			GemmNaive(false, false, m, n, k, 1, a, b, 0, want)
			for it := 0; it < iters; it++ {
				s := GetScratch(300 + int(tag))
				for i := range s.Data {
					s.Data[i] = tag
				}
				gemmPacked(false, false, m, n, k, a, b, 0, c)
				for i := range c {
					if c[i] != want[i] {
						t.Errorf("worker %v: concurrent gemm corrupted at %d", tag, i)
						return
					}
				}
				for i, v := range s.Data {
					if v != tag {
						t.Errorf("worker %v: scratch corrupted at %d: %v", tag, i, v)
						return
					}
				}
				PutScratch(s)
			}
		}(float32(w + 1))
	}
	wg.Wait()
}

// BenchmarkGemmDenseShapes times the three GEMMs of one nn.Dense training
// step at batch 16 for the layer widths the HAR MLP's sub-models run, its
// 6-class head last: the forward x·Wᵀ (transB), the weight gradient dyᵀ·x
// (transA, beta = 1) and the input gradient dy·W. Every row count, 16 or a
// layer width, leaves a partial row tile. The calls run serially, as they do under the federated
// round's device workers.
func BenchmarkGemmDenseShapes(b *testing.B) {
	const batch = 16
	for _, l := range [][2]int{{64, 48}, {64, 24}, {48, 18}, {48, 6}} {
		in, out := l[0], l[1]
		rng := rand.New(rand.NewSource(3))
		x := make([]float32, batch*in)
		w := make([]float32, out*in)
		dy := make([]float32, batch*out)
		y := make([]float32, batch*out)
		dw := make([]float32, out*in)
		dx := make([]float32, batch*in)
		fillRand(rng, x)
		fillRand(rng, w)
		fillRand(rng, dy)
		for _, c := range []struct {
			name string
			run  func()
		}{
			{fmt.Sprintf("fwd_%dx%dx%d_NT", batch, out, in), func() { Gemm(false, true, batch, out, in, 1, x, w, 0, y) }},
			{fmt.Sprintf("dw_%dx%dx%d_TN", out, in, batch), func() { Gemm(true, false, out, in, batch, 1, dy, x, 1, dw) }},
			{fmt.Sprintf("dx_%dx%dx%d_NN", batch, in, out), func() { Gemm(false, false, batch, in, out, 1, dy, w, 0, dx) }},
		} {
			b.Run(c.name, func(b *testing.B) {
				WithSerialKernels(func() {
					c.run()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c.run()
					}
				})
			})
		}
	}
}

// BenchmarkKernelTiles times one 6×16 kernel call against the two 6×8 calls
// it replaces, over packed operands (A tile (1, mr), two B panels 8k floats
// apart, C row stride 16) at the k the conv GEMMs run: 3 to 16 for the
// narrow module convs, 144 for a 16-channel 3×3. docs/PERF.md finding #13
// cites its table. The edge rows time the tiles a sub-model's odd row
// counts leave (1–5 rows) at a full panel (8 columns), a panel pair (16)
// and a partial panel (3), one call at 512 bits and one or two 6×8 calls
// at 256 bits (finding #14):
//
//	go test -run '^$' -bench KernelTiles -count 5 ./internal/tensor
func BenchmarkKernelTiles(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{3, 8, 16, 32, 64, 144} {
		a := make([]float32, mr*k)
		bp := make([]float32, 2*nr*k)
		c := make([]float32, mr*2*nr)
		fillRand(rng, a)
		fillRand(rng, bp)
		b.Run(fmt.Sprintf("k=%d/2x6x8", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernel6x8(a, bp, c, k, 2*nr, 0, 1, mr, nr, mr, nr, 0)
				kernel6x8(a, bp[nr*k:], c[nr:], k, 2*nr, 0, 1, mr, nr, mr, nr, 0)
			}
		})
		b.Run(fmt.Sprintf("k=%d/6x16", k), func(b *testing.B) {
			if !strictAVX512 {
				b.Skipf("no AVX-512F/DQ with OS ZMM state (features %s)", CPUFeatures())
			}
			for i := 0; i < b.N; i++ {
				kernel6x16(a, bp, c, k, 2*nr, 0, 1, mr, nr, nr*k, mr, 2*nr, 0)
			}
		})
		if k != 3 && k != 16 && k != 144 {
			continue
		}
		for rows := 1; rows < mr; rows++ {
			for _, cols := range []int{nr, 2 * nr, 3} {
				forEachKernel(b, func(level string) {
					if level == "portable" {
						return
					}
					b.Run(fmt.Sprintf("k=%d/edge%dx%d/%s", k, rows, cols, level), func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							kernelStrip(a, bp, c, k, 2*nr, 0, 1, mr, nr, nr*k, rows, cols, 0)
						}
					})
				})
			}
		}
	}
}

// kernelStrip computes the rows×cols block of C (cols ≤ 2·nr) down two
// adjacent B panels as runTiles does at the selected level: one kernel6x16
// call where strictAVX512 is set, else one kernel6x8 call per panel.
func kernelStrip(a, b, c []float32, k, ldc, mode, lda, ksa, ldb, bstep, rows, cols, astep int) {
	if strictAVX512 {
		kernel6x16(a, b, c, k, ldc, mode, lda, ksa, ldb, bstep, rows, cols, astep)
		return
	}
	kernel6x8(a, b, c, k, ldc, mode, lda, ksa, ldb, rows, min(cols, nr), astep)
	if cols > nr {
		kernel6x8(a, b[bstep:], c[nr:], k, ldc, mode, lda, ksa, ldb, rows, cols-nr, astep)
	}
}
