//go:build !amd64

package tensor

// kernel6x8 is the portable micro-kernel on non-amd64 targets.
// goGemmKernel6x8 is written so its multiply/add sequence cannot be fused
// into FMAs, keeping results bitwise identical to the amd64 AVX kernel.
func kernel6x8(a, b, c []float32, k, ldc, mode int) {
	goGemmKernel6x8(a, b, c, k, ldc, mode)
}
