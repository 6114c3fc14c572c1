//go:build amd64

package tensor

// Runtime CPU-feature probing for kernel selection (cpu.go) and the bench
// provenance string. Uses raw CPUID/XGETBV (cpu_amd64.s) instead of a
// dependency: AVX use is gated on both the CPU bit and the OS having enabled
// YMM state saving (OSXSAVE + XCR0 bits 1..2), AVX-512 use on the CPU bits
// and the OS saving opmask and ZMM state too (XCR0 bits 5..7), the same
// discipline as golang.org/x/sys/cpu.
func cpuidex(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

func init() {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 1 {
		return
	}
	_, _, c1, _ := cpuidex(1, 0)
	cpuHasSSE42 = c1&(1<<20) != 0
	const (
		bitFMA     = 1 << 12
		bitOSXSAVE = 1 << 27
		bitAVX     = 1 << 28
	)
	if c1&bitOSXSAVE == 0 || c1&bitAVX == 0 {
		return
	}
	if lo, _ := xgetbv0(); lo&0x6 != 0x6 {
		return // OS does not save XMM+YMM state; AVX would fault
	}
	cpuHasAVX = true
	cpuHasFMA = c1&bitFMA != 0
	if maxLeaf >= 7 {
		_, b7, _, _ := cpuidex(7, 0)
		cpuHasAVX2 = b7&(1<<5) != 0
		const bitsAVX512FDQ = 1<<16 | 1<<17
		// XCR0 bits 1, 2 and 5..7: XMM, YMM, opmask, ZMM0-15 upper halves
		// and ZMM16-31.
		lo, _ := xgetbv0()
		cpuHasAVX512 = b7&bitsAVX512FDQ == bitsAVX512FDQ && lo&0xE6 == 0xE6
	}
	strictAVX = cpuHasAVX
	strictAVX512 = cpuHasAVX512
}
