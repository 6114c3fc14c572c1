package tensor

import "fmt"

// checkGemmOperands validates all three operand lengths up front with
// shape-carrying messages; without this an undersized A or B dies mid-kernel
// with a bare index-out-of-range. Both storage orders of A need m·k elements
// (and B k·n), so the check is transposition-independent but the message
// still reports the flags for debugging.
func checkGemmOperands(transA, transB bool, m, n, k int, a, b, c []float32) {
	if len(a) < m*k {
		panic(fmt.Sprintf("tensor: Gemm A operand too short: len(a)=%d, need m*k=%d*%d=%d (transA=%v)",
			len(a), m, k, m*k, transA))
	}
	if len(b) < k*n {
		panic(fmt.Sprintf("tensor: Gemm B operand too short: len(b)=%d, need k*n=%d*%d=%d (transB=%v)",
			len(b), k, n, k*n, transB))
	}
	if len(c) < m*n {
		panic(fmt.Sprintf("tensor: Gemm C operand too short: len(c)=%d, need m*n=%d*%d=%d",
			len(c), m, n, m*n))
	}
}

// packedMinWork gates the packed path: below this m·n·k the packing traffic
// and the fixed cost of a call rival the compute they save and the naive
// kernel is already in-cache. Above it the packed kernel wins at every
// width, n < nr included (BenchmarkGemmDenseShapes' 6-class head).
const packedMinWork = 1 << 11

// Gemm computes C = alpha·op(A)·op(B) + beta·C where op is optional
// transposition, with A [m,k] (or [k,m] if transA), B [k,n] (or [n,k] if
// transB) and C [m,n], all row-major flat slices. This is the single hot
// kernel under every Dense and Conv layer.
//
// Large calls with alpha=1 and beta ∈ {0,1} — every call the layers make —
// run through the cache-blocked, panel-packed kernel (pack.go); everything
// else falls back to GemmNaive. Both paths produce bitwise-identical results
// for any Parallelism setting, including when invoked from inside another
// parallel kernel.
func Gemm(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	checkGemmOperands(transA, transB, m, n, k, a, b, c)
	if alpha == 1 && (beta == 0 || beta == 1) && k > 0 && m*n*k >= packedMinWork {
		gemmPackedCount.Inc()
		gemmPacked(transA, transB, m, n, k, a, b, beta, c)
		return
	}
	gemmNaiveCount.Inc()
	gemmNaive(transA, transB, m, n, k, alpha, a, b, beta, c)
}

// GemmNaive is the pre-blocking reference kernel: a row-parallel triple loop
// with no packing and no tiling. It is retained verbatim as (a) the fallback
// for general alpha/beta and (b) the differential-test oracle the packed
// kernel is pinned against.
func GemmNaive(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	checkGemmOperands(transA, transB, m, n, k, a, b, c)
	gemmNaive(transA, transB, m, n, k, alpha, a, b, beta, c)
}

func gemmNaive(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	if m*n*k < minParallelWork {
		// No closure on this path: one handed to ParallelFor escapes, and a
		// routed module's sub-batch GEMMs are often this small.
		gemmNaiveRows(transA, transB, m, n, k, alpha, a, b, beta, c, 0, m)
		return
	}
	ParallelFor(m, func(i int) {
		gemmNaiveRows(transA, transB, m, n, k, alpha, a, b, beta, c, i, i+1)
	})
}

// gemmNaiveRows computes rows [i0, i1) of C.
func gemmNaiveRows(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32, i0, i1 int) {
	for i := i0; i < i1; i++ {
		crow := c[i*n : i*n+n]
		if beta == 0 {
			for j := range crow {
				crow[j] = 0
			}
		} else if beta != 1 {
			for j := range crow {
				crow[j] *= beta
			}
		}
		switch {
		case !transA && !transB:
			arow := a[i*k : i*k+k]
			for p, av := range arow {
				av *= alpha
				brow := b[p*n : p*n+n]
				for j, bv := range brow {
					crow[j] += float32(av * bv)
				}
			}
		case !transA && transB:
			arow := a[i*k : i*k+k]
			for j := 0; j < n; j++ {
				brow := b[j*k : j*k+k]
				var s float32
				for p, av := range arow {
					s += float32(av * brow[p])
				}
				crow[j] += float32(alpha * s)
			}
		case transA && !transB:
			// A is stored [k,m]; walk column i of A.
			for p := 0; p < k; p++ {
				av := a[p*m+i] * alpha
				brow := b[p*n : p*n+n]
				for j, bv := range brow {
					crow[j] += float32(av * bv)
				}
			}
		default: // transA && transB
			for j := 0; j < n; j++ {
				var s float32
				for p := 0; p < k; p++ {
					s += float32(a[p*m+i] * b[j*k+p])
				}
				crow[j] += float32(alpha * s)
			}
		}
	}
}
