//go:build !amd64

package tensor

// kernel6x8 is the portable micro-kernel on non-amd64 targets.
// goGemmKernel6x8 rounds every product with an explicit conversion, so no
// multiply/add pair can be fused into an FMA and results stay bitwise
// identical to the amd64 AVX kernel.
func kernel6x8(a, b, c []float32, k, ldc, mode, lda, ksa, ldb int) {
	goGemmKernel6x8(a, b, c, k, ldc, mode, lda, ksa, ldb)
}

// kernel6x16 is the pair of portable kernel calls the amd64 6×16 kernel
// replaces. runTiles never reaches it here: strictAVX512 is set on amd64
// only.
func kernel6x16(a, b, c []float32, k, ldc, mode, lda, ksa, ldb, bstep int) {
	goGemmKernel6x8(a, b, c, k, ldc, mode, lda, ksa, ldb)
	goGemmKernel6x8(a, b[bstep:], c[nr:], k, ldc, mode, lda, ksa, ldb)
}
