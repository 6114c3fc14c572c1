package tensor

import (
	"runtime"
	"strings"
)

// SIMD feature flags. cpu_amd64.go fills them at package init from raw
// CPUID/XGETBV; off amd64 they stay false.
var cpuHasSSE42, cpuHasAVX, cpuHasAVX2, cpuHasFMA bool

// strictAVX selects the 256-bit strict kernel (gemm_avx_amd64.s) over the
// portable goGemmKernel6x8. Both keep every multiply and add a separately
// rounded IEEE float32 operation in the same single chain per C element, so
// the choice is invisible to every bitwise gate (TestGemmPortableMatchesAVX).
// Set once at package init (cpu_amd64.go) when the CPU and OS support AVX;
// only tests toggle it afterwards.
var strictAVX bool

// CPUFeatures returns the detected SIMD feature set as a provenance string
// for bench reports, e.g. "sse4.2+avx2+fma"; "baseline" when none of the
// probed features are present (or off amd64).
func CPUFeatures() string {
	feats := make([]string, 0, 4)
	if cpuHasSSE42 {
		feats = append(feats, "sse4.2")
	}
	if cpuHasAVX {
		feats = append(feats, "avx")
	}
	if cpuHasAVX2 {
		feats = append(feats, "avx2")
	}
	if cpuHasFMA {
		feats = append(feats, "fma")
	}
	if len(feats) == 0 {
		return "baseline"
	}
	return strings.Join(feats, "+")
}

// KernelMode names the micro-kernel GEMM runs, for bench provenance:
// "strict-avx" or "strict-portable-<arch>".
func KernelMode() string {
	if strictAVX {
		return "strict-avx"
	}
	return "strict-portable-" + runtime.GOARCH
}
