//go:build amd64

package tensor

// kernel6x8 computes one mr×nr C tile from strided operands; see
// goGemmKernel6x8 for the operand and mode contract. The AVX assembly runs
// when CPUID and XGETBV allow it (cpu_amd64.go); any other amd64 CPU gets the
// portable kernel, the reference the assembly is pinned against.
func kernel6x8(a, b, c []float32, k, ldc, mode, lda, ksa, ldb int) {
	if strictAVX {
		gemmKernel6x8AVX(&a[0], &b[0], &c[0], k, ldc, mode, lda, ksa, ldb)
		return
	}
	goGemmKernel6x8(a, b, c, k, ldc, mode, lda, ksa, ldb)
}

// kernel6x16 computes two adjacent mr×nr C tiles that share an A tile: the
// B panel at b and the one bstep floats after it, into C columns 0..7 and
// 8..15. Bitwise the two kernel6x8 calls it replaces. Only called where
// strictAVX512 is set (runTiles checks it): the 512-bit assembly has no
// fallback.
func kernel6x16(a, b, c []float32, k, ldc, mode, lda, ksa, ldb, bstep int) {
	gemmKernel6x16AVX512(&a[0], &b[0], &c[0], k, ldc, mode, lda, ksa, ldb, bstep)
}

//go:noescape
func gemmKernel6x8AVX(a, b, c *float32, k, ldc, mode, lda, ksa, ldb int)

//go:noescape
func gemmKernel6x16AVX512(a, b, c *float32, k, ldc, mode, lda, ksa, ldb, bstep int)
