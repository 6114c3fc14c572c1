package tensor

import "sync"

// Packed GEMM, GotoBLAS-style. One micro-kernel computes every tile of C for
// all four transA/transB variants; it takes operand strides and the valid
// extent, so an operand is read where it lies whenever its layout allows:
//
//   - Element (p, r) of an A tile (k step p, C row r) is at a[p*ksa + r*lda].
//     Every tile of op(A), the partial last one included, is read in place:
//     (lda, ksa) = (k, 1) when A is row-major, (1, m) when it is stored
//     transposed.
//   - Row p of a B panel (k step p, nr contiguous C columns) is at b[p*ldb:].
//     Every panel of a row-major B is read in place with ldb = n.
//   - The one operand the kernel cannot read in place is a transposed B,
//     whose columns are not contiguous: packB packs every panel, element
//     (p, c) at p*nr + c — the stride ldb = nr — with lanes past n +0. The
//     implicit-conv gathers leave their panels in the same layout.
//
// Tiles cover the full k extent (no k-blocking): each C element is produced
// by a single uninterrupted summation chain in ascending-p order, which is
// what makes the kernel bitwise-reproducible against the reference ordering
// (see docs/PERF.md). A tile read in place and the same tile packed hold the
// same values in the same order, so which operands are packed never moves a
// bit. Cache behaviour comes from the loop order: the column-panel loop is
// outermost, so one B panel (k·nr·4 bytes, L1-resident for every shape this
// repo hits) is reused across the entire sweep of A tiles.
//
// The extent contract: a kernel call computes the rows×cols block of C down
// one column strip — cols ≤ nr at 256 bits, ≤ 2·nr at 512 bits, and any
// rows, swept one mr-row tile at a time — and reads no A row at or past
// rows and no B or C column at or past cols. An edge tile, m % mr rows or
// n % nr columns, is therefore computed and written in place like a full
// one, inside the same call. There is no staging tile and no scalar edge
// kernel to keep numerically consistent: every element, full tile or edge,
// takes the same chain.
const (
	mr = 6 // micro-kernel rows: one accumulator register each
	nr = 8 // B panel width: one 8-lane vector per row
)

// packB packs the panels of a transposed B (op(B) is k×n, b holds its n
// columns as rows of k) into dst, panel t at dst[t*nr*k:], zero-padding
// columns past n: ceil(n/nr)·nr·k elements.
func packB(b []float32, k, n int, dst []float32) {
	for j0 := 0; j0 < n; j0 += nr {
		base := j0 * k // == (j0/nr) * nr * k
		cols := n - j0
		if cols > nr {
			cols = nr
		}
		if cols == nr {
			// op(B)[p][j] = b[j*k+p]: walk the panel's eight source rows
			// together so every k step stores one contiguous nr-wide row.
			r0 := b[(j0+0)*k:]
			r1 := b[(j0+1)*k:]
			r2 := b[(j0+2)*k:]
			r3 := b[(j0+3)*k:]
			r4 := b[(j0+4)*k:]
			r5 := b[(j0+5)*k:]
			r6 := b[(j0+6)*k:]
			r7 := b[(j0+7)*k:]
			for p := 0; p < k; p++ {
				dp := dst[base+p*nr : base+p*nr+nr]
				dp[0] = r0[p]
				dp[1] = r1[p]
				dp[2] = r2[p]
				dp[3] = r3[p]
				dp[4] = r4[p]
				dp[5] = r5[p]
				dp[6] = r6[p]
				dp[7] = r7[p]
			}
			continue
		}
		for c := 0; c < cols; c++ {
			src := b[(j0+c)*k:]
			for p := 0; p < k; p++ {
				dst[base+p*nr+c] = src[p]
			}
		}
		for c := cols; c < nr; c++ {
			for p := 0; p < k; p++ {
				dst[base+p*nr+c] = 0
			}
		}
	}
}

// goGemmKernel6x8 is the portable micro-kernel: the rows×cols region
// (rows ≤ mr, cols ≤ nr) of a C tile (row stride ldc) from one A tile and
// one B panel over the full k extent, with element (p, r) of A at
// a[p*ksa + r*lda] and row p of B at b[p*ldb:] (pack.go's header). It reads
// nothing past the extent. Modes:
//
//	0: C = acc       (accumulator starts at zero, raw store)
//	1: C = C + acc   (accumulator starts at zero, one add per element)
//	2: C = acc       (accumulator preloaded from C, raw store)
//
// It is the bitwise reference for the assembly kernels. The explicit
// float32 conversion rounds each product before it is added: the Go spec
// lets a compiler that can fuse (arm64) turn x*y + z into one FMA unless a
// conversion rounds x*y, and a temporary variable does not count.
func goGemmKernel6x8(a, b, c []float32, k, ldc, mode, lda, ksa, ldb, rows, cols int) {
	var acc [mr][nr]float32
	if mode == 2 {
		for r := 0; r < rows; r++ {
			copy(acc[r][:cols], c[r*ldc:r*ldc+cols])
		}
	}
	for p := 0; p < k; p++ {
		bp := b[p*ldb : p*ldb+cols]
		for r := 0; r < rows; r++ {
			ar := a[p*ksa+r*lda]
			row := acc[r][:len(bp)]
			for j, bv := range bp {
				row[j] += float32(ar * bv)
			}
		}
	}
	for r := 0; r < rows; r++ {
		crow := c[r*ldc : r*ldc+cols]
		if mode == 1 {
			for j := range crow {
				crow[j] += acc[r][j]
			}
			continue
		}
		copy(crow, acc[r][:])
	}
}

// goGemmStrip is the portable strip kernel: the rows×cols block of C (any
// rows, cols ≤ nr) down one B panel, one goGemmKernel6x8 call per mr-row
// tile, A tile t at a[t*astep:] and its C rows at c[t*mr*ldc:].
func goGemmStrip(a, b, c []float32, k, ldc, mode, lda, ksa, ldb, rows, cols, astep int) {
	for i := 0; i < rows; i += mr {
		goGemmKernel6x8(a[i/mr*astep:], b, c[i*ldc:], k, ldc, mode, lda, ksa, ldb, min(rows-i, mr), cols)
	}
}

// operand is one GEMM operand as the micro-kernel reads it. Tile t — mr rows
// of op(A) or nr columns of op(B) — starts at src[t*step], its element
// (p, lane) at p*ks + lane*ld from there (ld is 1 for B).
type operand struct {
	src    []float32
	step   int
	ld, ks int
}

// tile returns tile t of o and its lane and k strides.
func (o *operand) tile(t int) ([]float32, int, int) {
	return o.src[t*o.step:], o.ld, o.ks
}

// readA returns op(A) (m×k) as the kernel reads it: in place.
func readA(a []float32, m, k int, transA bool) operand {
	if transA {
		return operand{src: a, step: mr, ld: 1, ks: m}
	}
	return operand{src: a, step: mr * k, ld: k, ks: 1}
}

// readB returns a row-major op(B) (k×n) as the kernel reads it: in place.
func readB(b []float32, n int) operand {
	return operand{src: b, step: nr, ld: 1, ks: n}
}

// packed returns tiles of width w that are already packed in p, as packB
// and the implicit-conv gathers leave them.
func packed(p []float32, w, k int) operand {
	return operand{src: p, step: w * k, ld: 1, ks: w}
}

// gemmDesc carries one packed-GEMM invocation across the worker pool; pooled
// so the parallel path allocates nothing per call.
type gemmDesc struct {
	a, b    operand
	c       []float32
	m, n, k int
	mode    int
	// 2-D band grid: gm×gn bands over mTiles×nTiles micro-tiles. Band
	// boundaries are a pure function of (m, n, Parallelism); bands own
	// disjoint regions of C, and every element's summation chain is
	// complete within its tile, so results are bitwise independent of the
	// grid and of scheduling.
	gm, gn         int
	mTiles, nTiles int
	band           func(idx int) // runBand, bound once so ParallelFor gets no fresh closure
}

var gemmDescPool = sync.Pool{New: func() any {
	d := new(gemmDesc)
	d.band = d.runBand
	return d
}}

func (d *gemmDesc) runBand(idx int) {
	bi, bj := idx/d.gn, idx%d.gn
	d.runTiles(bi*d.mTiles/d.gm, (bi+1)*d.mTiles/d.gm,
		bj*d.nTiles/d.gn, (bj+1)*d.nTiles/d.gn)
}

// runTiles sweeps the [it0,it1)×[jt0,jt1) micro-tile region. Column panels
// are the outer loop so the current B panel stays cache-resident across all
// row tiles: one kernel call sweeps the region's rows down a column strip
// and writes C in place, its edge tile included. Where strictAVX512 is set
// a strip is two panels wide (kernel6x16): a B operand's panels lie in src
// with one ldb, the second at the operand's step from the first, and a
// region with an odd panel count ends on a single one.
func (d *gemmDesc) runTiles(it0, it1, jt0, jt1 int) {
	span := 1
	if strictAVX512 {
		span = 2
	}
	i0 := it0 * mr
	rows := min(d.m, it1*mr) - i0
	ap, lda, ksa := d.a.tile(it0)
	for jt := jt0; jt < jt1; jt += span {
		j0 := jt * nr
		cols := min(d.n-j0, min(span, jt1-jt)*nr)
		bp, _, ldb := d.b.tile(jt)
		c := d.c[i0*d.n+j0:]
		if span == 2 {
			kernel6x16(ap, bp, c, d.k, d.n, d.mode, lda, ksa, ldb, d.b.step, rows, cols, d.a.step)
		} else {
			kernel6x8(ap, bp, c, d.k, d.n, d.mode, lda, ksa, ldb, rows, cols, d.a.step)
		}
	}
}

// gemmPacked runs C = op(A)·op(B) + beta·C (beta ∈ {0,1}, alpha folded to 1
// by the dispatcher) through the packed kernel. A and a row-major B are read
// in place; a transposed B is packed into scratch from the arena. The
// descriptor and wait group are pooled — zero steady-state allocations.
func gemmPacked(transA, transB bool, m, n, k int, a, b []float32, beta float32, c []float32) {
	pa := readA(a, m, k, transA)
	pb := readB(b, n)
	var s *Scratch
	if transB {
		s = GetScratch((n + nr - 1) / nr * nr * k)
		packB(b, k, n, s.Data)
		pb = packed(s.Data, nr, k)
	}

	// Kernel mode from the reference ordering: transB=false variants are
	// axpy-order (the chain begins at beta·C), transB=true variants are
	// dot-order (the chain begins at zero, then C = beta·C + sum).
	mode := 0
	if beta == 1 {
		if transB {
			mode = 1
		} else {
			mode = 2
		}
	}

	runGemm(&pa, &pb, c, m, n, k, mode)
	PutScratch(s)
}

// runGemm sweeps one invocation (operands a and b into C) through the band
// grid. Shared by gemmPacked and the implicit-GEMM conv entry points
// (implicit.go), which differ only in where the operands lie — the grid
// partition, worker fan-out, and summation chains are identical, so an
// operand packed by a gather to the pack.go layout inherits the
// bitwise-reproducibility contract.
func runGemm(a, b *operand, c []float32, m, n, k, mode int) {
	mTiles := (m + mr - 1) / mr
	nTiles := (n + nr - 1) / nr

	d := gemmDescPool.Get().(*gemmDesc)
	d.a, d.b, d.c = *a, *b, c
	d.m, d.n, d.k, d.mode = m, n, k, mode
	d.mTiles, d.nTiles = mTiles, nTiles

	// Nested or small calls sweep the whole grid as one band: column panels
	// outermost, so each B panel is read once.
	d.gm, d.gn = 1, 1
	if workers := Parallelism; workers > 1 && m*n*k >= minParallelWork && parallelDepth.Load() == 0 {
		d.gm = min(workers, mTiles)
		d.gn = max(min(workers/d.gm, nTiles), 1)
	}
	if bands := d.gm * d.gn; bands > 1 {
		ParallelFor(bands, d.band)
	} else {
		d.runTiles(0, mTiles, 0, nTiles)
	}

	d.a, d.b, d.c = operand{}, operand{}, nil
	gemmDescPool.Put(d)
}
