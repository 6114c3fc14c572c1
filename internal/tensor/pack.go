package tensor

import "sync"

// Packed GEMM, GotoBLAS-style. Both operands are repacked into contiguous,
// transposition-normalized panels so all four transA/transB variants feed
// the same micro-kernel:
//
//   - A is packed into panels of mr rows, element (p, r) of panel t at
//     pa[t*mr*k + p*mr + r] — the kernel reads one mr-wide column slice per
//     k step, contiguously.
//   - B is packed into panels of nr columns, element (p, c) of panel t at
//     pb[t*nr*k + p*nr + c] — one nr-wide row slice per k step.
//
// Panels cover the full k extent (no k-blocking): each C element is produced
// by a single uninterrupted summation chain in ascending-p order, which is
// what makes the packed kernel bitwise-reproducible against the reference
// ordering (see docs/PERF.md). Cache behaviour comes from the loop order
// instead: the column-panel loop is outermost, so one packed B panel
// (k·nr·4 bytes, L1-resident for every shape this repo hits) is reused
// across the entire sweep of A panels, which stream from L2.
//
// Edge tiles (m % mr, n % nr remainders) run the same kernel into a
// stack-allocated 6×8 staging tile; a Go epilogue moves the valid region.
// There are no scalar edge kernels to keep numerically consistent.
const (
	mr = 6 // micro-kernel rows: one 8-lane AVX accumulator register each
	nr = 8 // micro-kernel cols: one 8-lane vector per row
)

// packA copies op(A) (m×k) into mr-row panels of dst, zero-padding rows past
// m so the micro-kernel never branches on the edge.
func packA(a []float32, m, k int, transA bool, dst []float32) {
	for i0 := 0; i0 < m; i0 += mr {
		base := i0 * k // == (i0/mr) * mr * k
		rows := m - i0
		if rows > mr {
			rows = mr
		}
		if transA && rows == mr {
			// op(A)[i][p] = a[p*m+i]: a k step's mr values are contiguous on
			// both sides, so a full tile is one fixed-size copy per step.
			for p := 0; p < k; p++ {
				*(*[mr]float32)(dst[base+p*mr:]) = *(*[mr]float32)(a[p*m+i0:])
			}
		} else if transA {
			for p := 0; p < k; p++ {
				src := a[p*m+i0:]
				dp := dst[base+p*mr : base+p*mr+mr]
				for r := 0; r < rows; r++ {
					dp[r] = src[r]
				}
				for r := rows; r < mr; r++ {
					dp[r] = 0
				}
			}
		} else if rows == mr {
			// Row-major source: walk p outer so the mr-wide destination
			// slices are written contiguously; the six source rows stay
			// cache-resident across the sweep.
			r0 := a[(i0+0)*k:]
			r1 := a[(i0+1)*k:]
			r2 := a[(i0+2)*k:]
			r3 := a[(i0+3)*k:]
			r4 := a[(i0+4)*k:]
			r5 := a[(i0+5)*k:]
			for p := 0; p < k; p++ {
				dp := dst[base+p*mr : base+p*mr+mr]
				dp[0] = r0[p]
				dp[1] = r1[p]
				dp[2] = r2[p]
				dp[3] = r3[p]
				dp[4] = r4[p]
				dp[5] = r5[p]
			}
		} else {
			// Partial row-major tile: clear the panel, then scatter one
			// source row at a time (a sequential read, one index add each).
			panel := dst[base : base+mr*k]
			clear(panel)
			for r := 0; r < rows; r++ {
				for p, v := range a[(i0+r)*k : (i0+r)*k+k] {
					panel[p*mr+r] = v
				}
			}
		}
	}
}

// packB copies op(B) (k×n) into nr-column panels of dst, zero-padding
// columns past n.
func packB(b []float32, k, n int, transB bool, dst []float32) {
	for j0 := 0; j0 < n; j0 += nr {
		base := j0 * k // == (j0/nr) * nr * k
		cols := n - j0
		if cols > nr {
			cols = nr
		}
		if transB && cols == nr {
			// op(B)[p][j] = b[j*k+p]: walk the panel's eight source rows
			// together so every k step stores one contiguous nr-wide row —
			// packA's row-major path, eight wide.
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
		} else if transB {
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
		} else {
			for p := 0; p < k; p++ {
				src := b[p*n+j0 : p*n+j0+cols]
				dp := dst[base+p*nr : base+p*nr+nr]
				copy(dp, src)
				for c := cols; c < nr; c++ {
					dp[c] = 0
				}
			}
		}
	}
}

// goGemmKernel6x8 is the portable micro-kernel: C tile (mr×nr, row stride
// ldc) from one A panel and one B panel over the full k extent. Modes:
//
//	0: C = acc       (accumulator starts at zero, raw store)
//	1: C = C + acc   (accumulator starts at zero, one add per element)
//	2: C = acc       (accumulator preloaded from C, raw store)
//
// It is the bitwise reference for the assembly kernel — the `t :=` temporary
// keeps the multiply and add as two rounded IEEE operations so compilers
// that can fuse (arm64) cannot turn the pair into an FMA.
func goGemmKernel6x8(a, b, c []float32, k, ldc, mode int) {
	var acc [mr][nr]float32
	if mode == 2 {
		for r := 0; r < mr; r++ {
			copy(acc[r][:], c[r*ldc:r*ldc+nr])
		}
	}
	for p := 0; p < k; p++ {
		ap := a[p*mr : p*mr+mr]
		bp := b[p*nr : p*nr+nr]
		for r := 0; r < mr; r++ {
			ar := ap[r]
			row := &acc[r]
			for j := 0; j < nr; j++ {
				t := ar * bp[j]
				row[j] += t
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

// gemmDesc carries one packed-GEMM invocation across the worker pool; pooled
// so the parallel path allocates nothing per call.
type gemmDesc struct {
	pa, pb  []float32
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
}

var gemmDescPool = sync.Pool{New: func() any { return new(gemmDesc) }}

func (d *gemmDesc) runBand(idx int) {
	bi, bj := idx/d.gn, idx%d.gn
	d.runTiles(bi*d.mTiles/d.gm, (bi+1)*d.mTiles/d.gm,
		bj*d.nTiles/d.gn, (bj+1)*d.nTiles/d.gn)
}

// runTiles sweeps the [it0,it1)×[jt0,jt1) micro-tile region. Column panels
// are the outer loop so the current B panel stays cache-resident across all
// row panels.
func (d *gemmDesc) runTiles(it0, it1, jt0, jt1 int) {
	var tile [mr * nr]float32
	for jt := jt0; jt < jt1; jt++ {
		j0 := jt * nr
		cols := d.n - j0
		if cols > nr {
			cols = nr
		}
		bp := d.pb[jt*nr*d.k:]
		for it := it0; it < it1; it++ {
			i0 := it * mr
			rows := d.m - i0
			if rows > mr {
				rows = mr
			}
			ap := d.pa[it*mr*d.k:]
			if rows == mr && cols == nr {
				kernel6x8(ap, bp, d.c[i0*d.n+j0:], d.k, d.n, d.mode)
				continue
			}
			// Edge tile: stage through the stack tile with ldc=nr, then
			// move only the valid region. Mode 1 runs the kernel in mode 0
			// and performs the single C+acc add here — identical numerics,
			// no C preload needed.
			switch d.mode {
			case 2:
				for r := 0; r < rows; r++ {
					copy(tile[r*nr:r*nr+cols], d.c[(i0+r)*d.n+j0:(i0+r)*d.n+j0+cols])
				}
				kernel6x8(ap, bp, tile[:], d.k, nr, 2)
				for r := 0; r < rows; r++ {
					copy(d.c[(i0+r)*d.n+j0:(i0+r)*d.n+j0+cols], tile[r*nr:r*nr+cols])
				}
			case 1:
				kernel6x8(ap, bp, tile[:], d.k, nr, 0)
				for r := 0; r < rows; r++ {
					crow := d.c[(i0+r)*d.n+j0 : (i0+r)*d.n+j0+cols]
					trow := tile[r*nr : r*nr+cols]
					for j := range crow {
						crow[j] += trow[j]
					}
				}
			default:
				kernel6x8(ap, bp, tile[:], d.k, nr, 0)
				for r := 0; r < rows; r++ {
					copy(d.c[(i0+r)*d.n+j0:(i0+r)*d.n+j0+cols], tile[r*nr:r*nr+cols])
				}
			}
		}
	}
}

// gemmPacked runs C = op(A)·op(B) + beta·C (beta ∈ {0,1}, alpha folded to 1
// by the dispatcher) through the packed kernel. Scratch comes from the
// arena; the descriptor and wait group are pooled — zero steady-state
// allocations.
func gemmPacked(transA, transB bool, m, n, k int, a, b []float32, beta float32, c []float32) {
	mTiles := (m + mr - 1) / mr
	nTiles := (n + nr - 1) / nr
	sa := GetScratch(mTiles * mr * k)
	sb := GetScratch(nTiles * nr * k)
	packA(a, m, k, transA, sa.Data)
	packB(b, k, n, transB, sb.Data)

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

	runPacked(sa.Data, sb.Data, c, m, n, k, mode)
	PutScratch(sa)
	PutScratch(sb)
}

// runPacked sweeps one packed invocation (pre-packed panels pa/pb into C)
// through the band grid. Shared by gemmPacked and the implicit-GEMM conv
// entry points (implicit.go), which differ only in how the panels were
// filled — the grid partition, worker fan-out, and summation chains are
// identical, so anything pre-packed to the pack.go layout inherits the
// bitwise-reproducibility contract.
func runPacked(pa, pb, c []float32, m, n, k, mode int) {
	mTiles := (m + mr - 1) / mr
	nTiles := (n + nr - 1) / nr

	d := gemmDescPool.Get().(*gemmDesc)
	d.pa, d.pb, d.c = pa, pb, c
	d.m, d.n, d.k, d.mode = m, n, k, mode
	d.mTiles, d.nTiles = mTiles, nTiles

	workers := Parallelism
	if workers < 1 {
		workers = 1
	}
	if workers == 1 || m*n*k < minParallelWork || parallelDepth.Load() > 0 {
		d.gm, d.gn = 1, 1
		d.runTiles(0, mTiles, 0, nTiles)
	} else {
		gm := workers
		if gm > mTiles {
			gm = mTiles
		}
		gn := workers / gm
		if gn > nTiles {
			gn = nTiles
		}
		if gn < 1 {
			gn = 1
		}
		d.gm, d.gn = gm, gn
		if bands := gm * gn; bands == 1 {
			d.runTiles(0, mTiles, 0, nTiles)
		} else {
			wg := enterParallel()
			for band := 1; band < bands; band++ {
				submit(parTask{gemm: d, chunk: band, wg: wg})
			}
			d.runBand(0)
			wg.Wait()
			exitParallel(wg)
		}
	}

	d.pa, d.pb, d.c = nil, nil, nil
	gemmDescPool.Put(d)
}
