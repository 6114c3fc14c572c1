//go:build amd64

package tensor

// Runtime CPU-feature probing for kernel selection (cpu.go) and the bench
// provenance string. Uses raw CPUID/XGETBV (cpu_amd64.s) instead of a
// dependency: AVX use is gated on both the CPU bit and the OS having enabled
// YMM state saving (OSXSAVE + XCR0 bits 1..2), the same discipline as
// golang.org/x/sys/cpu.
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
	}
	strictAVX = cpuHasAVX
}
