//go:build amd64

#include "textflag.h"

// func gemmKernel6x8AVX(a, b, c *float32, k, ldc, mode, lda, ksa, ldb, rows, cols, astep int)
//
// 6×8 GEMM micro-kernel over strided operands (see pack.go for the
// contract), computing the rows×cols block of C down one B panel (rows ≥ 1,
// 1 ≤ cols ≤ 8) one 6-row tile at a time — a column strip, its edge tile
// included, in one call:
//
//   a: the first A tile, element (p, r) at a[p*ksa + r*lda] (r = C row);
//      tile t starts astep floats after tile t−1
//   b: B panel, row p at b[p*ldb:], one float per C column
//   c: top-left of the C block, row stride ldc floats
//
// A packed panel is the case (lda, ksa, ldb) = (1, 6, 8).
//
// modes: 0 = C = acc (acc starts zero), 1 = C += acc (acc starts zero),
//        2 = C = acc (acc preloaded from C).
//
// The valid extent is the contract: no A row at or past rows and no B or C
// column at or past cols is read or written. A full panel (cols = 8) moves
// B and C with VMOVUPS; a partial one with VMASKMOVPS under a lane mask
// (Y9, cols leading lanes of colmask<>), which does not fault on masked-off
// lanes. Each (panel, row count) pair has its own k loop, so a 1-row edge
// tile broadcasts one A element per k step, not six. The rows and astep
// argument slots are the strip's cursor: rows counts down by 6 per tile,
// and a moves on by astep.
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
// the current B row, Y1 the broadcast A element, Y2 the product and Y9 the
// column mask. SI walks A by R12 = ksa*4 bytes per k step, reading row r at
// SI + r*lda*4 through R9 = lda*4, R10 = 3*lda*4 and R11 = 5*lda*4; DX walks
// B by R13 = ldb*4; R8 walks C rows by BX = ldc*4 bytes. VZEROUPPER before
// RET avoids the AVX-SSE transition penalty for the SSE code that follows.

// colmask<>+32-4*cols holds cols all-ones lanes, then zeros.
DATA colmask<>+0(SB)/8, $0xffffffffffffffff
DATA colmask<>+8(SB)/8, $0xffffffffffffffff
DATA colmask<>+16(SB)/8, $0xffffffffffffffff
DATA colmask<>+24(SB)/8, $0xffffffffffffffff
DATA colmask<>+32(SB)/8, $0
DATA colmask<>+40(SB)/8, $0
DATA colmask<>+48(SB)/8, $0
DATA colmask<>+56(SB)/8, $0
GLOBL colmask<>(SB), RODATA|NOPTR, $64

// B row p: a full panel, or a partial one under the mask.
#define LOADB VMOVUPS (DX), Y0
#define LOADBM VMASKMOVPS (DX), Y9, Y0

// Row r of a k step: acc_r += a[p][r] * B row p.
#define ROW0 VBROADCASTSS (SI), Y1; VMULPS Y0, Y1, Y2; VADDPS Y2, Y10, Y10
#define ROW1 VBROADCASTSS (SI)(R9*1), Y1; VMULPS Y0, Y1, Y2; VADDPS Y2, Y11, Y11
#define ROW2 VBROADCASTSS (SI)(R9*2), Y1; VMULPS Y0, Y1, Y2; VADDPS Y2, Y12, Y12
#define ROW3 VBROADCASTSS (SI)(R10*1), Y1; VMULPS Y0, Y1, Y2; VADDPS Y2, Y13, Y13
#define ROW4 VBROADCASTSS (SI)(R9*4), Y1; VMULPS Y0, Y1, Y2; VADDPS Y2, Y14, Y14
#define ROW5 VBROADCASTSS (SI)(R11*1), Y1; VMULPS Y0, Y1, Y2; VADDPS Y2, Y15, Y15
#define ROWS1 ROW0
#define ROWS2 ROWS1; ROW1
#define ROWS3 ROWS2; ROW2
#define ROWS4 ROWS3; ROW3
#define ROWS5 ROWS4; ROW4
#define ROWS6 ROWS5; ROW5

// Advance to the next k step; the flags say whether one is left.
#define NEXTK ADDQ R12, SI; ADDQ R13, DX; DECQ CX

// One k loop, labelled l: B load LOAD, A rows ROWS, then to the store.
#define KLOOP(l, LOAD, ROWS) l: LOAD; ROWS; NEXTK; JNZ l; JMP store

// C row access, full and masked: load, store, add-and-store (mode 1: the
// loaded C value is the left operand — the operand roles of
// goGemmKernel6x8's `crow[j] += acc[r][j]`).
#define LOADC(acc) VMOVUPS (R8), acc
#define STOREC(acc) VMOVUPS acc, (R8)
#define ADDC(acc) VMOVUPS (R8), Y0; VADDPS acc, Y0, Y0; VMOVUPS Y0, (R8)
#define LOADCM(acc) VMASKMOVPS (R8), Y9, acc
#define STORECM(acc) VMASKMOVPS acc, Y9, (R8)
#define ADDCM(acc) VMASKMOVPS (R8), Y9, Y0; VADDPS acc, Y0, Y0; VMASKMOVPS Y0, Y9, (R8)

// Move R8 to the next C row, or leave for label after the tile's last
// valid one (the rows slot holds the rows left in the strip).
#define NEXTROW(n, label) CMPQ rows+72(FP), $n; JEQ label; ADDQ BX, R8

// OP on each valid C row's accumulator, then on to label.
#define CROWS(OP, label) OP(Y10); NEXTROW(1, label); OP(Y11); NEXTROW(2, label); OP(Y12); NEXTROW(3, label); OP(Y13); NEXTROW(4, label); OP(Y14); NEXTROW(5, label); OP(Y15); JMP label

// Jump to the k loop for the tile's row count: 6 while six or more are left.
#define BYROWS(l1, l2, l3, l4, l5, l6) MOVQ rows+72(FP), R8; CMPQ R8, $6; JGE l6; CMPQ R8, $5; JEQ l5; CMPQ R8, $4; JEQ l4; CMPQ R8, $3; JEQ l3; CMPQ R8, $2; JEQ l2; JMP l1

TEXT ·gemmKernel6x8AVX(SB), NOSPLIT, $0-96
	MOVQ c+16(FP), DI
	MOVQ ldc+32(FP), BX
	MOVQ mode+40(FP), AX
	MOVQ lda+48(FP), R9
	MOVQ ksa+56(FP), R12
	MOVQ ldb+64(FP), R13
	SHLQ $2, BX               // row stride in bytes
	SHLQ $2, R9               // A row stride in bytes
	SHLQ $2, R12              // A k step in bytes
	SHLQ $2, R13              // B k step in bytes
	SHLQ $2, astep+88(FP)     // A tile step in bytes
	LEAQ (R9)(R9*2), R10      // 3 A rows
	LEAQ (R9)(R9*4), R11      // 5 A rows

	// Column mask: cols leading lanes set.
	MOVQ    cols+80(FP), R8
	SHLQ    $2, R8
	LEAQ    colmask<>+32(SB), R14
	SUBQ    R8, R14
	VMOVUPS (R14), Y9

tile:
	// One 6-row tile (fewer at the strip's end): A from a, B from b, C
	// from DI.
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ k+24(FP), CX

	// modes 0/1: zero the accumulator; mode 2: acc = C
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15
	CMPQ   AX, $2
	JNE    dispatch
	MOVQ   DI, R8
	CMPQ   cols+80(FP), $8
	JNE    preloadm
	CROWS(LOADC, dispatch)

preloadm:
	CROWS(LOADCM, dispatch)

dispatch:
	TESTQ CX, CX
	JZ    store
	CMPQ  cols+80(FP), $8
	JNE   masked
	BYROWS(f1, f2, f3, f4, f5, f6)

masked:
	BYROWS(m1, m2, m3, m4, m5, m6)

	// The k loops: one per B load and row count.
	KLOOP(f6, LOADB, ROWS6)
	KLOOP(f5, LOADB, ROWS5)
	KLOOP(f4, LOADB, ROWS4)
	KLOOP(f3, LOADB, ROWS3)
	KLOOP(f2, LOADB, ROWS2)
	KLOOP(f1, LOADB, ROWS1)
	KLOOP(m6, LOADBM, ROWS6)
	KLOOP(m5, LOADBM, ROWS5)
	KLOOP(m4, LOADBM, ROWS4)
	KLOOP(m3, LOADBM, ROWS3)
	KLOOP(m2, LOADBM, ROWS2)
	KLOOP(m1, LOADBM, ROWS1)

store:
	MOVQ DI, R8
	CMPQ cols+80(FP), $8
	JNE  storem
	CMPQ AX, $1
	JEQ  addstore
	CROWS(STOREC, next) // modes 0/2: C = acc

addstore:
	CROWS(ADDC, next) // mode 1: C = C + acc

storem:
	CMPQ AX, $1
	JEQ  addstorem
	CROWS(STORECM, next)

addstorem:
	CROWS(ADDCM, next)

next:
	// On to the next tile: rows left −6, C six rows on, A one tile step on.
	SUBQ $6, rows+72(FP)
	JLE  done
	LEAQ (BX)(BX*2), R8
	LEAQ (DI)(R8*2), DI
	MOVQ astep+88(FP), R8
	ADDQ R8, a+0(FP)
	JMP  tile

done:
	VZEROUPPER
	RET

// func axpyAVX(a float32, x, y *float32, n8 int)
//
// y[i] += a*x[i] over n8 blocks of eight floats (n8 ≥ 1): the strict twin
// of Axpy's Go loop. Each lane takes a separately rounded VMULPS of a and
// x[i], then a separately rounded VADDPS with the loaded y[i] as the left
// operand — the operations and operand roles of `y[i] += float32(a * x[i])`.
// No FMA.
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	VBROADCASTSS a+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n8+24(FP), CX

axpyloop:
	VMOVUPS (SI), Y1
	VMULPS  Y1, Y0, Y1
	VMOVUPS (DI), Y2
	VADDPS  Y1, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     axpyloop
	VZEROUPPER
	RET
