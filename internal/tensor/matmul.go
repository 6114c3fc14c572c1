package tensor

import "fmt"

// MatMul computes C = A·B for rank-2 tensors A [m,k] and B [k,n], returning a
// new [m,n] tensor.
func MatMul(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	if b.Dim(0) != k {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	n := b.Dim(1)
	c := New(m, n)
	Gemm(false, false, m, n, k, 1, a.Data, b.Data, 0, c.Data)
	return c
}

// MatMulInto computes C = A·B into an existing tensor C of shape [m,n].
func MatMulInto(c, a, b *Tensor) {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	if b.Dim(0) != k || c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch c=%v a=%v b=%v", c.shape, a.shape, b.shape))
	}
	Gemm(false, false, m, n, k, 1, a.Data, b.Data, 0, c.Data)
}

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
// rivals the compute it saves and the naive kernel is already in-cache.
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
	if alpha == 1 && (beta == 0 || beta == 1) && k > 0 && n >= nr && m*n*k >= packedMinWork {
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
	ParallelFor(m, func(i0, i1 int) {
		gemmNaiveRows(transA, transB, m, n, k, alpha, a, b, beta, c, i0, i1)
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
				if av == 0 {
					continue
				}
				av *= alpha
				brow := b[p*n : p*n+n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		case !transA && transB:
			arow := a[i*k : i*k+k]
			for j := 0; j < n; j++ {
				brow := b[j*k : j*k+k]
				var s float32
				for p, av := range arow {
					s += av * brow[p]
				}
				crow[j] += alpha * s
			}
		case transA && !transB:
			// A is stored [k,m]; walk column i of A.
			for p := 0; p < k; p++ {
				av := a[p*m+i]
				if av == 0 {
					continue
				}
				av *= alpha
				brow := b[p*n : p*n+n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		default: // transA && transB
			for j := 0; j < n; j++ {
				var s float32
				for p := 0; p < k; p++ {
					s += a[p*m+i] * b[j*k+p]
				}
				crow[j] += alpha * s
			}
		}
	}
}

// MatVec computes y = A·x for A [m,n] and x length n, writing into y length m.
func MatVec(a *Tensor, x, y []float32) {
	m, n := a.Dim(0), a.Dim(1)
	if len(x) != n || len(y) != m {
		panic("tensor: MatVec size mismatch")
	}
	Gemm(false, false, m, 1, n, 1, a.Data, x, 0, y)
}

// OuterAccum computes C += x·yᵀ for vectors x (len m) and y (len n) into the
// flat [m,n] slice c. Used for weight-gradient accumulation.
func OuterAccum(c, x, y []float32) {
	m, n := len(x), len(y)
	if len(c) < m*n {
		panic("tensor: OuterAccum output too small")
	}
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		crow := c[i*n : i*n+n]
		for j, yv := range y {
			crow[j] += xv * yv
		}
	}
}
