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

//go:noescape
func gemmKernel6x8AVX(a, b, c *float32, k, ldc, mode, lda, ksa, ldb int)
