//go:build amd64

package tensor

// kernel6x8 computes the rows×cols block of C (any rows, cols ≤ nr) down one
// B panel: A tile t (mr rows, at a[t*astep:]) into C rows t·mr on. It reads
// no A row at or past rows and no B or C column at or past cols; see
// goGemmKernel6x8 for the operand and mode contract. The AVX assembly runs
// when CPUID and XGETBV allow it (cpu_amd64.go); any other amd64 CPU gets
// the portable strip, the reference the assembly is pinned against.
func kernel6x8(a, b, c []float32, k, ldc, mode, lda, ksa, ldb, rows, cols, astep int) {
	if strictAVX {
		gemmKernel6x8AVX(&a[0], &b[0], &c[0], k, ldc, mode, lda, ksa, ldb, rows, cols, astep)
		return
	}
	goGemmStrip(a, b, c, k, ldc, mode, lda, ksa, ldb, rows, cols, astep)
}

// kernel6x16 is kernel6x8 two panels wide (cols ≤ 2·nr): columns 0..7 from
// the B panel at b, 8..15 from the one bstep floats after it, with the same
// extent contract, and its bits are those of the kernel6x8 strips it
// replaces. Only called where strictAVX512 is set (runTiles checks it): the
// 512-bit assembly has no fallback.
func kernel6x16(a, b, c []float32, k, ldc, mode, lda, ksa, ldb, bstep, rows, cols, astep int) {
	gemmKernel6x16AVX512(&a[0], &b[0], &c[0], k, ldc, mode, lda, ksa, ldb, bstep, rows, cols, astep)
}

// axpyBlocks runs Axpy's loop over the leading whole blocks of eight
// elements through its AVX twin where strictAVX is set, and returns how many
// elements it did; the Go loop does the rest.
func axpyBlocks(a float32, x, y []float32) int {
	n8 := len(x) / 8
	if !strictAVX || n8 == 0 {
		return 0
	}
	axpyAVX(a, &x[0], &y[0], n8)
	return 8 * n8
}

//go:noescape
func gemmKernel6x8AVX(a, b, c *float32, k, ldc, mode, lda, ksa, ldb, rows, cols, astep int)

//go:noescape
func gemmKernel6x16AVX512(a, b, c *float32, k, ldc, mode, lda, ksa, ldb, bstep, rows, cols, astep int)

//go:noescape
func axpyAVX(a float32, x, y *float32, n8 int)
