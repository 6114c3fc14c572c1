package tensor

import "sync"

// Packed GEMM, GotoBLAS-style. One micro-kernel computes every 6×8 tile of C
// for all four transA/transB variants; it takes operand strides, so an
// operand is read where it lies whenever its layout allows:
//
//   - Element (p, r) of an A tile (k step p, C row r) is at a[p*ksa + r*lda].
//     A full tile of op(A) is read in place: (lda, ksa) = (k, 1) when A is
//     row-major, (1, m) when it is stored transposed.
//   - Row p of a B panel (k step p, nr contiguous C columns) is at b[p*ldb:].
//     A full panel of a row-major B is read in place with ldb = n.
//   - What the kernel cannot read in place is packed: the partial last tile
//     of A (m % mr rows, packA), the partial last panel of B (n % nr
//     columns) and every panel of a transposed B (packB). A packed A tile
//     holds element (p, r) at p*mr + r, a packed B panel element (p, c) at
//     p*nr + c — the strides (lda, ksa, ldb) = (1, mr, nr) — and lanes past
//     m or n are +0, so the kernel never branches on the edge.
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
// Edge tiles of C (m % mr, n % nr remainders) run the same kernel into a
// stack-allocated 6×8 staging tile; a Go epilogue moves the valid region.
// There are no scalar edge kernels to keep numerically consistent.
const (
	mr = 6 // micro-kernel rows: one 8-lane AVX accumulator register each
	nr = 8 // micro-kernel cols: one 8-lane vector per row
)

// packA copies the partial last row tile of op(A) (m×k) — rows m−m%mr to m,
// which the kernel cannot read in place — into the mr-row tile dst (mr·k
// elements), zero-padding the rows past m.
func packA(a []float32, m, k int, transA bool, dst []float32) {
	i0 := m - m%mr
	rows := m - i0
	if transA {
		for p := 0; p < k; p++ {
			dp := dst[p*mr : p*mr+mr]
			clear(dp[copy(dp, a[p*m+i0:p*m+m]):])
		}
		return
	}
	// Row-major source: clear the tile, then scatter one source row at a
	// time (a sequential read, one index add each).
	tile := dst[:mr*k]
	clear(tile)
	for r := 0; r < rows; r++ {
		for p, v := range a[(i0+r)*k : (i0+r)*k+k] {
			tile[p*mr+r] = v
		}
	}
}

// packB copies the panels of op(B) (k×n) the kernel cannot read in place
// into dst, zero-padding columns past n: every nr-column panel when B is
// stored transposed (panel t at dst[t*nr*k:]), else only the partial last
// panel — columns n−n%nr to n, at dst[:nr*k].
func packB(b []float32, k, n int, transB bool, dst []float32) {
	if !transB {
		j0 := n - n%nr
		for p := 0; p < k; p++ {
			dp := dst[p*nr : p*nr+nr]
			clear(dp[copy(dp, b[p*n+j0:p*n+n]):])
		}
		return
	}
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

// goGemmKernel6x8 is the portable micro-kernel: C tile (mr×nr, row stride
// ldc) from one A tile and one B panel over the full k extent, with element
// (p, r) of A at a[p*ksa + r*lda] and row p of B at b[p*ldb:] (pack.go's
// header). Modes:
//
//	0: C = acc       (accumulator starts at zero, raw store)
//	1: C = C + acc   (accumulator starts at zero, one add per element)
//	2: C = acc       (accumulator preloaded from C, raw store)
//
// It is the bitwise reference for the assembly kernel. The explicit
// float32 conversion rounds each product before it is added: the Go spec
// lets a compiler that can fuse (arm64) turn x*y + z into one FMA unless a
// conversion rounds x*y, and a temporary variable does not count.
func goGemmKernel6x8(a, b, c []float32, k, ldc, mode, lda, ksa, ldb int) {
	var acc [mr][nr]float32
	if mode == 2 {
		for r := 0; r < mr; r++ {
			copy(acc[r][:], c[r*ldc:r*ldc+nr])
		}
	}
	for p := 0; p < k; p++ {
		bp := b[p*ldb : p*ldb+nr]
		for r := 0; r < mr; r++ {
			ar := a[p*ksa+r*lda]
			row := &acc[r]
			for j := 0; j < nr; j++ {
				row[j] += float32(ar * bp[j])
			}
		}
	}
	if mode == 1 {
		for r := 0; r < mr; r++ {
			crow := c[r*ldc : r*ldc+nr]
			for j := 0; j < nr; j++ {
				crow[j] += acc[r][j]
			}
		}
		return
	}
	for r := 0; r < mr; r++ {
		copy(c[r*ldc:r*ldc+nr], acc[r][:])
	}
}

// operand is one GEMM operand as the micro-kernel reads it. Tile t — mr rows
// of op(A) or nr columns of op(B) — starts at src[t*step], its element
// (p, lane) at p*ks + lane*ld from there (ld is 1 for B). edge, when set, is
// the last tile packed: the partial tile the kernel cannot read in place.
type operand struct {
	src      []float32
	step     int
	ld, ks   int
	edge     []float32
	edgeTile int // the tile edge replaces
}

// tile returns tile t of o and its lane and k strides; w is the tile width,
// the k stride of a packed tile.
func (o *operand) tile(t, w int) ([]float32, int, int) {
	if o.edge != nil && t == o.edgeTile {
		return o.edge, 1, w
	}
	return o.src[t*o.step:], o.ld, o.ks
}

// readA returns op(A) (m×k) as the kernel reads it: full tiles in place,
// the partial last tile, if any, packed into edge (mr·k elements; see
// edgeLen).
func readA(a []float32, m, k int, transA bool, edge []float32) operand {
	o := operand{src: a, step: mr * k, ld: k, ks: 1}
	if transA {
		o = operand{src: a, step: mr, ld: 1, ks: m}
	}
	if m%mr != 0 {
		o.edge, o.edgeTile = edge[:mr*k], m/mr
		packA(a, m, k, transA, o.edge)
	}
	return o
}

// readB returns op(B) (k×n) as the kernel reads it. A row-major B is read in
// place but for its partial last panel, packed into dst (nr·k elements); a
// transposed B is packed whole into dst (ceil(n/nr)·nr·k elements).
func readB(b []float32, k, n int, transB bool, dst []float32) operand {
	if transB {
		packB(b, k, n, true, dst)
		return packed(dst, nr, k)
	}
	o := operand{src: b, step: nr, ld: 1, ks: n}
	if n%nr != 0 {
		o.edge, o.edgeTile = dst[:nr*k], n/nr
		packB(b, k, n, false, o.edge)
	}
	return o
}

// packed returns tiles of width w that are already packed in p, as the
// implicit-conv gathers leave them.
func packed(p []float32, w, k int) operand {
	return operand{src: p, step: w * k, ld: 1, ks: w}
}

// edgeLen returns the elements readA (w = mr, lanes = m) or a row-major
// readB (w = nr, lanes = n) packs: one tile when w does not divide lanes.
func edgeLen(lanes, w, k int) int {
	if lanes%w == 0 {
		return 0
	}
	return w * k
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
// row panels. Where strictAVX512 is set, each pair of full panels is swept
// as one: kernel6x16 computes both panels' full row tiles in one call. A B
// operand packs only its partial last panel apart (readB), so two full
// panels lie in src with one ldb, the second at the operand's step from the
// first. Row-edge tiles and an unpaired last panel take the 6×8 path either
// way.
func (d *gemmDesc) runTiles(it0, it1, jt0, jt1 int) {
	var tile [mr * nr]float32
	for jt := jt0; jt < jt1; jt++ {
		j0 := jt * nr
		bp, _, ldb := d.b.tile(jt, nr)
		if strictAVX512 && jt+1 < jt1 && j0+2*nr <= d.n {
			for it := it0; it < it1; it++ {
				i0 := it * mr
				ap, lda, ksa := d.a.tile(it, mr)
				if d.m-i0 >= mr {
					kernel6x16(ap, bp, d.c[i0*d.n+j0:], d.k, d.n, d.mode, lda, ksa, ldb, d.b.step)
					continue
				}
				d.edgeTile(&tile, ap, lda, ksa, bp, ldb, i0, j0, nr)
				d.edgeTile(&tile, ap, lda, ksa, bp[d.b.step:], ldb, i0, j0+nr, nr)
			}
			jt++
			continue
		}
		cols := min(d.n-j0, nr)
		for it := it0; it < it1; it++ {
			i0 := it * mr
			ap, lda, ksa := d.a.tile(it, mr)
			if d.m-i0 >= mr && cols == nr {
				kernel6x8(ap, bp, d.c[i0*d.n+j0:], d.k, d.n, d.mode, lda, ksa, ldb)
				continue
			}
			d.edgeTile(&tile, ap, lda, ksa, bp, ldb, i0, j0, cols)
		}
	}
}

// edgeTile computes the C tile at (i0, j0) that C holds only in part — its
// rows past m or its columns past j0+cols are missing. The kernel runs into
// a stack-allocated staging tile with ldc=nr, and only the valid region
// moves. Mode 1 runs the kernel in mode 0 and performs the single C+acc add
// here — identical numerics, no C preload needed.
func (d *gemmDesc) edgeTile(tile *[mr * nr]float32, ap []float32, lda, ksa int, bp []float32, ldb, i0, j0, cols int) {
	rows := min(d.m-i0, mr)
	switch d.mode {
	case 2:
		for r := 0; r < rows; r++ {
			copy(tile[r*nr:r*nr+cols], d.c[(i0+r)*d.n+j0:(i0+r)*d.n+j0+cols])
		}
		kernel6x8(ap, bp, tile[:], d.k, nr, 2, lda, ksa, ldb)
		for r := 0; r < rows; r++ {
			copy(d.c[(i0+r)*d.n+j0:(i0+r)*d.n+j0+cols], tile[r*nr:r*nr+cols])
		}
	case 1:
		kernel6x8(ap, bp, tile[:], d.k, nr, 0, lda, ksa, ldb)
		for r := 0; r < rows; r++ {
			crow := d.c[(i0+r)*d.n+j0 : (i0+r)*d.n+j0+cols]
			trow := tile[r*nr : r*nr+cols]
			for j := range crow {
				crow[j] += trow[j]
			}
		}
	default:
		kernel6x8(ap, bp, tile[:], d.k, nr, 0, lda, ksa, ldb)
		for r := 0; r < rows; r++ {
			copy(d.c[(i0+r)*d.n+j0:(i0+r)*d.n+j0+cols], tile[r*nr:r*nr+cols])
		}
	}
}

// gemmPacked runs C = op(A)·op(B) + beta·C (beta ∈ {0,1}, alpha folded to 1
// by the dispatcher) through the packed kernel. The tiles it packs share one
// scratch block from the arena; the descriptor and wait group are pooled —
// zero steady-state allocations.
func gemmPacked(transA, transB bool, m, n, k int, a, b []float32, beta float32, c []float32) {
	aLen := edgeLen(m, mr, k)
	bLen := edgeLen(n, nr, k)
	if transB {
		bLen = (n + nr - 1) / nr * nr * k
	}
	s := GetScratch(aLen + bLen)
	pa := readA(a, m, k, transA, s.Data[:aLen])
	pb := readB(b, k, n, transB, s.Data[aLen:])

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
