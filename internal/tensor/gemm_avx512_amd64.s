//go:build amd64

#include "textflag.h"

// func gemmKernel6x16AVX512(a, b, c *float32, k, ldc, mode, lda, ksa, ldb, bstep, rows, cols, astep int)
//
// GEMM micro-kernel over up to two adjacent B panels that share the A
// tiles: the rows×cols block of C (rows ≥ 1, 1 ≤ cols ≤ 16) one 6-row tile
// at a time — a column strip, its edge tile included, in one call. Operands
// as for gemmKernel6x8AVX (a, astep and the strip cursor too), plus
//
//   b: the left B panel, row p at b[p*ldb:]; the right panel's row p is at
//      b[bstep + p*ldb:] (bstep = the operand's panel step: 8 for a
//      row-major B read in place, 8k for packed panels). Columns 0..7 come
//      from the left panel, 8..15 from the right.
//   c: top-left of the C block; C row r starts at c[r*ldc].
//
// Modes as for gemmKernel6x8AVX: 0 = C = acc, 1 = C += acc, 2 = C = acc with
// acc preloaded from C.
//
// The valid extent is the contract: no A row at or past rows and no B or C
// column at or past cols is read or written. An opmask holds the cols valid
// lanes (K3; K1 and K2 its lanes 0..7 and 8..15); every B and C access is
// masked by it, and masked loads do not fault on masked-off lanes. All
// masked accesses are 512 bits wide, so the kernel needs AVX-512F and DQ
// only, not VL. Each row count has its own k loop, so a 1-row edge tile
// broadcasts one A element per k step, not six. Three B loads: a pair of
// full panels (cols = 16) loads unmasked, a partial pair loads the left
// panel's lanes zero-masked and merges the right panel's lanes 8..15 from
// 32 bytes before its row, and a single panel (cols ≤ 8) loads the left
// lanes alone — lanes past cols stay zero and are never stored.
//
// Strict 512-bit kernel: lane j of a ZMM row is lane j of the left tile's
// row (j < 8) or lane j−8 of the right tile's, and each lane takes the
// 256-bit kernel's operations in the same order — a separately rounded
// VMULPS of the same broadcast A element and B element, then a separately
// rounded VADDPS onto the same accumulator, in ascending p. No FMA. The
// stored block is therefore bit for bit what goGemmKernel6x8 computes for
// it. Selected by runTiles for every strip when the CPU reports AVX-512F/DQ
// and the OS saves ZMM and opmask state (cpu_amd64.go).
//
// Register plan: Z10..Z15 hold the accumulator (one row each), Z0 the
// current B row (left panel's row in the lower half, right panel's in the
// upper), Z1 the broadcast A element and Z2 the product. SI
// walks A by R12 = ksa*4 bytes per k step, reading row r at SI + r*lda*4
// through R9 = lda*4, R10 = 3*lda*4 and R11 = 5*lda*4; DX walks the left
// panel by R13 = ldb*4 and reads the right one at DX + R14 (R14 = bstep*4);
// R8 walks C rows by BX = ldc*4 bytes. Only Z0..Z15 are touched, so the
// VZEROUPPER before RET clears all the upper state the kernel dirtied.

// B row p: the full pair, the masked pair, the masked left panel alone.
#define LOADB16 VMOVUPS (DX), Y0; VINSERTF32X8 $1, (DX)(R14*1), Z0, Z0
#define LOADBPAIR VMOVUPS.Z (DX), K1, Z0; VMOVUPS -32(DX)(R14*1), K2, Z0
#define LOADB8 VMOVUPS.Z (DX), K1, Z0

// Row r of a k step: acc_r += a[p][r] * B row p.
#define ROW0 VBROADCASTSS (SI), Z1; VMULPS Z0, Z1, Z2; VADDPS Z2, Z10, Z10
#define ROW1 VBROADCASTSS (SI)(R9*1), Z1; VMULPS Z0, Z1, Z2; VADDPS Z2, Z11, Z11
#define ROW2 VBROADCASTSS (SI)(R9*2), Z1; VMULPS Z0, Z1, Z2; VADDPS Z2, Z12, Z12
#define ROW3 VBROADCASTSS (SI)(R10*1), Z1; VMULPS Z0, Z1, Z2; VADDPS Z2, Z13, Z13
#define ROW4 VBROADCASTSS (SI)(R9*4), Z1; VMULPS Z0, Z1, Z2; VADDPS Z2, Z14, Z14
#define ROW5 VBROADCASTSS (SI)(R11*1), Z1; VMULPS Z0, Z1, Z2; VADDPS Z2, Z15, Z15
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

// C row access under the column mask: load, store, add-and-store (mode 1:
// the loaded C value is the left operand, as in gemmKernel6x8AVX).
#define LOADC(acc) VMOVUPS.Z (R8), K3, acc
#define STOREC(acc) VMOVUPS acc, K3, (R8)
#define ADDC(acc) VMOVUPS.Z (R8), K3, Z0; VADDPS acc, Z0, Z0; VMOVUPS Z0, K3, (R8)

// Move R8 to the next C row, or leave for label after the tile's last
// valid one (the rows slot holds the rows left in the strip).
#define NEXTROW(n, label) CMPQ rows+80(FP), $n; JEQ label; ADDQ BX, R8

// OP on each valid C row's accumulator, then on to label.
#define CROWS(OP, label) OP(Z10); NEXTROW(1, label); OP(Z11); NEXTROW(2, label); OP(Z12); NEXTROW(3, label); OP(Z13); NEXTROW(4, label); OP(Z14); NEXTROW(5, label); OP(Z15); JMP label

// Jump to the k loop for the tile's row count: 6 while six or more are left.
#define BYROWS(l1, l2, l3, l4, l5, l6) MOVQ rows+80(FP), R8; CMPQ R8, $6; JGE l6; CMPQ R8, $5; JEQ l5; CMPQ R8, $4; JEQ l4; CMPQ R8, $3; JEQ l3; CMPQ R8, $2; JEQ l2; JMP l1

TEXT ·gemmKernel6x16AVX512(SB), NOSPLIT, $0-104
	// Column mask (1<<cols)-1: K3 all 16 lanes, K1 the left panel's lanes
	// 0..7, K2 the right panel's lanes 8..15.
	MOVQ  cols+88(FP), CX
	MOVL  $1, R8
	SHLL  CX, R8
	DECL  R8
	KMOVW R8, K3
	MOVL  R8, R10
	ANDL  $0xff, R10
	KMOVW R10, K1
	ANDL  $0xff00, R8
	KMOVW R8, K2

	MOVQ c+16(FP), DI
	MOVQ ldc+32(FP), BX
	MOVQ mode+40(FP), AX
	MOVQ lda+48(FP), R9
	MOVQ ksa+56(FP), R12
	MOVQ ldb+64(FP), R13
	MOVQ bstep+72(FP), R14
	SHLQ $2, BX               // row stride in bytes
	SHLQ $2, R9               // A row stride in bytes
	SHLQ $2, R12              // A k step in bytes
	SHLQ $2, R13              // B k step in bytes
	SHLQ $2, R14              // left-to-right panel offset in bytes
	SHLQ $2, astep+96(FP)     // A tile step in bytes
	LEAQ (R9)(R9*2), R10      // 3 A rows
	LEAQ (R9)(R9*4), R11      // 5 A rows

tile:
	// One 6-row tile (fewer at the strip's end): A from a, B from b, C
	// from DI.
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ k+24(FP), CX

	// modes 0/1: zero the accumulator; mode 2: acc = C
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	CMPQ   AX, $2
	JNE    dispatch
	MOVQ   DI, R8
	CROWS(LOADC, dispatch)

dispatch:
	// Pick the k loop: the B load by cols, then the row count.
	TESTQ CX, CX
	JZ    store
	CMPQ  cols+88(FP), $16
	JEQ   full
	CMPQ  cols+88(FP), $8
	JLE   half
	BYROWS(p1, p2, p3, p4, p5, p6)

full:
	BYROWS(f1, f2, f3, f4, f5, f6)

half:
	BYROWS(h1, h2, h3, h4, h5, h6)

	// The k loops: one per B load and row count.
	KLOOP(f6, LOADB16, ROWS6)
	KLOOP(f5, LOADB16, ROWS5)
	KLOOP(f4, LOADB16, ROWS4)
	KLOOP(f3, LOADB16, ROWS3)
	KLOOP(f2, LOADB16, ROWS2)
	KLOOP(f1, LOADB16, ROWS1)
	KLOOP(p6, LOADBPAIR, ROWS6)
	KLOOP(p5, LOADBPAIR, ROWS5)
	KLOOP(p4, LOADBPAIR, ROWS4)
	KLOOP(p3, LOADBPAIR, ROWS3)
	KLOOP(p2, LOADBPAIR, ROWS2)
	KLOOP(p1, LOADBPAIR, ROWS1)
	KLOOP(h6, LOADB8, ROWS6)
	KLOOP(h5, LOADB8, ROWS5)
	KLOOP(h4, LOADB8, ROWS4)
	KLOOP(h3, LOADB8, ROWS3)
	KLOOP(h2, LOADB8, ROWS2)
	KLOOP(h1, LOADB8, ROWS1)

store:
	MOVQ DI, R8
	CMPQ AX, $1
	JEQ  addstore
	CROWS(STOREC, next) // modes 0/2: C = acc

addstore:
	CROWS(ADDC, next) // mode 1: C = C + acc

next:
	// On to the next tile: rows left −6, C six rows on, A one tile step on.
	SUBQ $6, rows+80(FP)
	JLE  done
	LEAQ (BX)(BX*2), R8
	LEAQ (DI)(R8*2), DI
	MOVQ astep+96(FP), R8
	ADDQ R8, a+0(FP)
	JMP  tile

done:
	VZEROUPPER
	RET
