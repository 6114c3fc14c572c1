//go:build amd64

#include "textflag.h"

// func gemmKernel6x16AVX512(a, b, c *float32, k, ldc, mode, lda, ksa, ldb, bstep int)
//
// 6×16 GEMM micro-kernel: two adjacent 6×8 tiles of C that share one A tile,
// computed in one call. Operands as for gemmKernel6x8AVX, plus
//
//   b: the left B panel, row p at b[p*ldb:]; the right panel's row p is at
//      b[bstep + p*ldb:] (bstep = the operand's panel step: 8 for a
//      row-major B read in place, 8k for packed panels)
//   c: top-left of the 6×16 C region; each C row is 16 contiguous floats
//
// Modes as for gemmKernel6x8AVX: 0 = C = acc, 1 = C += acc, 2 = C = acc with
// acc preloaded from C.
//
// Strict 512-bit kernel: lane j of a ZMM row is lane j of the left tile's
// row (j < 8) or lane j−8 of the right tile's, and each lane takes the
// 256-bit kernel's operations in the same order — a separately rounded
// VMULPS of the same broadcast A element and B element, then a separately
// rounded VADDPS onto the same accumulator, in ascending p. No FMA. The
// result is therefore bitwise identical to two gemmKernel6x8AVX calls (and
// to two goGemmKernel6x8 calls). Selected by runTiles for each pair of full
// panels when the CPU reports AVX-512F/DQ and the OS saves ZMM state
// (cpu_amd64.go).
//
// Register plan: Z10..Z15 hold the 6×16 accumulator (one row each), Z0 the
// current pair of B rows (left panel's row loaded into Y0, right panel's
// inserted into the upper half), Z1 the broadcast A element and Z2 the
// product. SI, R9..R12 walk A as in gemmKernel6x8AVX; DX walks the left
// panel by R13 = ldb*4 and reads the right one at DX + R14 (R14 = bstep*4);
// R8 walks C rows by BX = ldc*4 bytes. Only Z0..Z15 are touched, so the
// VZEROUPPER before every RET clears all the upper state the kernel dirtied.
TEXT ·gemmKernel6x16AVX512(SB), NOSPLIT, $0-80
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ c+16(FP), DI
	MOVQ k+24(FP), CX
	MOVQ ldc+32(FP), BX
	MOVQ mode+40(FP), AX
	MOVQ lda+48(FP), R9
	MOVQ ksa+56(FP), R12
	MOVQ ldb+64(FP), R13
	MOVQ bstep+72(FP), R14
	SHLQ $2, BX            // row stride in bytes
	SHLQ $2, R9            // A row stride in bytes
	SHLQ $2, R12           // A k step in bytes
	SHLQ $2, R13           // B k step in bytes
	SHLQ $2, R14           // left-to-right panel offset in bytes
	LEAQ (R9)(R9*2), R10   // 3 A rows
	LEAQ (R9)(R9*4), R11   // 5 A rows

	CMPQ AX, $2
	JEQ  preload

	// modes 0/1: zero the accumulator
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	JMP    kcheck

preload:
	// mode 2: acc = C
	MOVQ    DI, R8
	VMOVUPS (R8), Z10
	ADDQ    BX, R8
	VMOVUPS (R8), Z11
	ADDQ    BX, R8
	VMOVUPS (R8), Z12
	ADDQ    BX, R8
	VMOVUPS (R8), Z13
	ADDQ    BX, R8
	VMOVUPS (R8), Z14
	ADDQ    BX, R8
	VMOVUPS (R8), Z15

kcheck:
	TESTQ CX, CX
	JZ    store

kloop:
	VMOVUPS      (DX), Y0                  // left b[p][0:8]
	VINSERTF32X8 $1, (DX)(R14*1), Z0, Z0   // right b[p][0:8]
	VBROADCASTSS (SI), Z1                  // a[p][0]
	VMULPS       Z0, Z1, Z2
	VADDPS       Z2, Z10, Z10
	VBROADCASTSS (SI)(R9*1), Z1            // a[p][1]
	VMULPS       Z0, Z1, Z2
	VADDPS       Z2, Z11, Z11
	VBROADCASTSS (SI)(R9*2), Z1            // a[p][2]
	VMULPS       Z0, Z1, Z2
	VADDPS       Z2, Z12, Z12
	VBROADCASTSS (SI)(R10*1), Z1           // a[p][3]
	VMULPS       Z0, Z1, Z2
	VADDPS       Z2, Z13, Z13
	VBROADCASTSS (SI)(R9*4), Z1            // a[p][4]
	VMULPS       Z0, Z1, Z2
	VADDPS       Z2, Z14, Z14
	VBROADCASTSS (SI)(R11*1), Z1           // a[p][5]
	VMULPS       Z0, Z1, Z2
	VADDPS       Z2, Z15, Z15

	ADDQ R12, SI
	ADDQ R13, DX
	DECQ CX
	JNZ  kloop

store:
	CMPQ AX, $1
	JEQ  addstore

	// modes 0/2: C = acc
	MOVQ    DI, R8
	VMOVUPS Z10, (R8)
	ADDQ    BX, R8
	VMOVUPS Z11, (R8)
	ADDQ    BX, R8
	VMOVUPS Z12, (R8)
	ADDQ    BX, R8
	VMOVUPS Z13, (R8)
	ADDQ    BX, R8
	VMOVUPS Z14, (R8)
	ADDQ    BX, R8
	VMOVUPS Z15, (R8)
	VZEROUPPER
	RET

addstore:
	// mode 1: C = C + acc, the loaded C value as the left operand, as in
	// gemmKernel6x8AVX.
	MOVQ    DI, R8
	VMOVUPS (R8), Z0
	VADDPS  Z10, Z0, Z0
	VMOVUPS Z0, (R8)
	ADDQ    BX, R8
	VMOVUPS (R8), Z0
	VADDPS  Z11, Z0, Z0
	VMOVUPS Z0, (R8)
	ADDQ    BX, R8
	VMOVUPS (R8), Z0
	VADDPS  Z12, Z0, Z0
	VMOVUPS Z0, (R8)
	ADDQ    BX, R8
	VMOVUPS (R8), Z0
	VADDPS  Z13, Z0, Z0
	VMOVUPS Z0, (R8)
	ADDQ    BX, R8
	VMOVUPS (R8), Z0
	VADDPS  Z14, Z0, Z0
	VMOVUPS Z0, (R8)
	ADDQ    BX, R8
	VMOVUPS (R8), Z0
	VADDPS  Z15, Z0, Z0
	VMOVUPS Z0, (R8)
	VZEROUPPER
	RET
