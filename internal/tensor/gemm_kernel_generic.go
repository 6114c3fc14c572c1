//go:build !amd64

package tensor

// kernel6x8 is the portable strip kernel on non-amd64 targets.
// goGemmKernel6x8 rounds every product with an explicit conversion, so no
// multiply/add pair can be fused into an FMA and results stay bitwise
// identical to the amd64 AVX kernel.
func kernel6x8(a, b, c []float32, k, ldc, mode, lda, ksa, ldb, rows, cols, astep int) {
	goGemmStrip(a, b, c, k, ldc, mode, lda, ksa, ldb, rows, cols, astep)
}

// kernel6x16 is the portable form of the amd64 6×16 kernel, with the same
// extent: one strip per panel, the second for columns past nr. runTiles
// never reaches it here: strictAVX512 is set on amd64 only.
func kernel6x16(a, b, c []float32, k, ldc, mode, lda, ksa, ldb, bstep, rows, cols, astep int) {
	goGemmStrip(a, b, c, k, ldc, mode, lda, ksa, ldb, rows, min(cols, nr), astep)
	if cols > nr {
		goGemmStrip(a, b[bstep:], c[nr:], k, ldc, mode, lda, ksa, ldb, rows, cols-nr, astep)
	}
}

// axpyBlocks leaves all of Axpy to its Go loop: there is no twin here.
func axpyBlocks(a float32, x, y []float32) int { return 0 }
