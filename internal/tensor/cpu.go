package tensor

import (
	"runtime"
	"strings"
)

// SIMD feature flags. cpu_amd64.go fills them at package init from raw
// CPUID/XGETBV; off amd64 they stay false.
var cpuHasSSE42, cpuHasAVX, cpuHasAVX2, cpuHasFMA bool

// cpuHasAVX512 reports AVX-512F and AVX-512DQ together with OS-enabled
// opmask and ZMM state; the 512-bit kernel needs all of them.
var cpuHasAVX512 bool

// strictAVX selects the strict AVX kernels over the portable
// goGemmKernel6x8: they run at 256 bits (gemm_avx_amd64.s), or at 512 bits
// (gemm_avx512_amd64.s) where strictAVX512 is also set. All of them keep every multiply and add a separately rounded IEEE
// float32 operation in the same single chain per C element, so the choice is
// invisible to every bitwise gate (TestGemmPortableMatchesAVX). Set once at
// package init (cpu_amd64.go) when the CPU and OS support AVX; only tests
// toggle it afterwards.
var strictAVX bool

// strictAVX512 selects the 6×16 kernel (kernel6x16) for every tile runTiles
// sweeps: a pair of B panels, a single or partial last panel, and the row
// edges of each, one call apiece. Set at package init with strictAVX where
// the CPU reports AVX-512F/DQ and the OS saves opmask and ZMM state; never
// set without strictAVX.
var strictAVX512 bool

// HasAVX2 reports whether the CPU and the OS run AVX2: the flag that selects
// the wire codec's SIMD twins in nn, read there so that one probe serves both.
func HasAVX2() bool { return cpuHasAVX2 }

// CPUFeatures returns the detected SIMD feature set as a provenance string
// for bench reports, e.g. "sse4.2+avx2+fma"; "baseline" when none of the
// probed features are present (or off amd64).
func CPUFeatures() string {
	feats := make([]string, 0, 6)
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
	if cpuHasAVX512 {
		feats = append(feats, "avx512f", "avx512dq")
	}
	if len(feats) == 0 {
		return "baseline"
	}
	return strings.Join(feats, "+")
}

// KernelMode names the micro-kernel GEMM runs, for bench provenance:
// "strict-avx" or "strict-portable-<arch>". "strict-avx" covers both widths
// of the AVX kernels: 256 bits, or 512 bits for every tile where AVX-512F/DQ
// and OS ZMM state are present (CPUFeatures tells them apart).
func KernelMode() string {
	if strictAVX {
		return "strict-avx"
	}
	return "strict-portable-" + runtime.GOARCH
}
