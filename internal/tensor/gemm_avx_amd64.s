//go:build amd64

#include "textflag.h"

// func gemmKernel6x8AVX(a, b, c *float32, k, ldc, mode, lda, ksa, ldb int)
//
// 6×8 GEMM micro-kernel over strided operands (see pack.go for the
// contract):
//
//   a: A tile, element (p, r) at a[p*ksa + r*lda] (r = C row)
//   b: B panel, row p at b[p*ldb:], 8 contiguous floats (one per C column)
//   c: top-left of the C tile, row stride ldc floats
//
// A packed panel is the case (lda, ksa, ldb) = (1, 6, 8).
//
// modes: 0 = C = acc (acc starts zero), 1 = C += acc (acc starts zero),
//        2 = C = acc (acc preloaded from C).
//
// Strict 256-bit kernel: each C element is updated by a separate
// single-rounded VMULPS followed by a single-rounded VADDPS in ascending-p
// order, exactly the operation sequence of the portable goGemmKernel6x8,
// eight lanes at a time. No FMA — fusing would contract the round between
// multiply and add. The result is therefore bitwise identical to the portable
// kernel and safe for every bitwise gate; it is selected at package init when
// the CPU and OS support AVX (cpu_amd64.go).
//
// Register plan: Y10..Y15 hold the 6×8 accumulator (one row each), Y0 holds
// the current B row, Y1 the broadcast A element and Y2 the product. SI walks
// A by R12 = ksa*4 bytes per k step, reading row r at SI + r*lda*4 through R9
// = lda*4, R10 = 3*lda*4 and R11 = 5*lda*4; DX walks B by R13 = ldb*4; R8
// walks C rows by BX = ldc*4 bytes. VZEROUPPER before every RET avoids the
// AVX-SSE transition penalty for the SSE code that follows.
TEXT ·gemmKernel6x8AVX(SB), NOSPLIT, $0-72
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ c+16(FP), DI
	MOVQ k+24(FP), CX
	MOVQ ldc+32(FP), BX
	MOVQ mode+40(FP), AX
	MOVQ lda+48(FP), R9
	MOVQ ksa+56(FP), R12
	MOVQ ldb+64(FP), R13
	SHLQ $2, BX            // row stride in bytes
	SHLQ $2, R9            // A row stride in bytes
	SHLQ $2, R12           // A k step in bytes
	SHLQ $2, R13           // B k step in bytes
	LEAQ (R9)(R9*2), R10   // 3 A rows
	LEAQ (R9)(R9*4), R11   // 5 A rows

	CMPQ AX, $2
	JEQ  preload

	// modes 0/1: zero the accumulator
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15
	JMP    kcheck

preload:
	// mode 2: acc = C
	MOVQ    DI, R8
	VMOVUPS (R8), Y10
	ADDQ    BX, R8
	VMOVUPS (R8), Y11
	ADDQ    BX, R8
	VMOVUPS (R8), Y12
	ADDQ    BX, R8
	VMOVUPS (R8), Y13
	ADDQ    BX, R8
	VMOVUPS (R8), Y14
	ADDQ    BX, R8
	VMOVUPS (R8), Y15

kcheck:
	TESTQ CX, CX
	JZ    store

kloop:
	VMOVUPS      (DX), Y0        // b[p][0:8]
	VBROADCASTSS (SI), Y1        // a[p][0]
	VMULPS       Y0, Y1, Y2
	VADDPS       Y2, Y10, Y10
	VBROADCASTSS (SI)(R9*1), Y1  // a[p][1]
	VMULPS       Y0, Y1, Y2
	VADDPS       Y2, Y11, Y11
	VBROADCASTSS (SI)(R9*2), Y1  // a[p][2]
	VMULPS       Y0, Y1, Y2
	VADDPS       Y2, Y12, Y12
	VBROADCASTSS (SI)(R10*1), Y1 // a[p][3]
	VMULPS       Y0, Y1, Y2
	VADDPS       Y2, Y13, Y13
	VBROADCASTSS (SI)(R9*4), Y1  // a[p][4]
	VMULPS       Y0, Y1, Y2
	VADDPS       Y2, Y14, Y14
	VBROADCASTSS (SI)(R11*1), Y1 // a[p][5]
	VMULPS       Y0, Y1, Y2
	VADDPS       Y2, Y15, Y15

	ADDQ R12, SI
	ADDQ R13, DX
	DECQ CX
	JNZ  kloop

store:
	CMPQ AX, $1
	JEQ  addstore

	// modes 0/2: C = acc
	MOVQ    DI, R8
	VMOVUPS Y10, (R8)
	ADDQ    BX, R8
	VMOVUPS Y11, (R8)
	ADDQ    BX, R8
	VMOVUPS Y12, (R8)
	ADDQ    BX, R8
	VMOVUPS Y13, (R8)
	ADDQ    BX, R8
	VMOVUPS Y14, (R8)
	ADDQ    BX, R8
	VMOVUPS Y15, (R8)
	VZEROUPPER
	RET

addstore:
	// mode 1: C = C + acc, with the loaded C value as the left operand —
	// the operand roles of goGemmKernel6x8's `crow[j] += acc[r][j]`.
	MOVQ    DI, R8
	VMOVUPS (R8), Y0
	VADDPS  Y10, Y0, Y0
	VMOVUPS Y0, (R8)
	ADDQ    BX, R8
	VMOVUPS (R8), Y0
	VADDPS  Y11, Y0, Y0
	VMOVUPS Y0, (R8)
	ADDQ    BX, R8
	VMOVUPS (R8), Y0
	VADDPS  Y12, Y0, Y0
	VMOVUPS Y0, (R8)
	ADDQ    BX, R8
	VMOVUPS (R8), Y0
	VADDPS  Y13, Y0, Y0
	VMOVUPS Y0, (R8)
	ADDQ    BX, R8
	VMOVUPS (R8), Y0
	VADDPS  Y14, Y0, Y0
	VMOVUPS Y0, (R8)
	ADDQ    BX, R8
	VMOVUPS (R8), Y0
	VADDPS  Y15, Y0, Y0
	VMOVUPS Y0, (R8)
	VZEROUPPER
	RET
