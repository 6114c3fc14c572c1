//go:build amd64

#include "textflag.h"

// AVX twins of the implicit-conv data movement (implicit.go). They only move
// elements and, in the fold, add them in the portable path's order, so every
// output bit matches the Go loop they replace (TestConvMovesMatchPortable).
// AVX1 only: the moves are VMOVUPS/VINSERTF128, the shuffles are in-lane
// VUNPCK*PS/VSHUFPS/VBLENDPS and the adds VADDPS/VADDSS, all of which the
// strictAVX gate (cpu_amd64.go) guarantees. VZEROUPPER before every RET.

// −0 in every lane: the fold's filler for taps that fall before a row.
// x + (−0) == x for every x an add produced (+0 + −0 is +0 under
// round-to-nearest), so a filled lane adds nothing.
DATA negzero<>+0(SB)/4, $0x80000000
GLOBL negzero<>(SB), RODATA|NOPTR, $4

// Lane masks for a panel of w8 < 8 columns: the 32 bytes at
// panelmask<>+32−4·w8 keep lanes 0..w8−1 and clear the rest to +0, the panel
// layout's fill past kdim.
DATA panelmask<>+0(SB)/8, $-1
DATA panelmask<>+8(SB)/8, $-1
DATA panelmask<>+16(SB)/8, $-1
DATA panelmask<>+24(SB)/8, $-1
DATA panelmask<>+32(SB)/8, $0
DATA panelmask<>+40(SB)/8, $0
DATA panelmask<>+48(SB)/8, $0
DATA panelmask<>+56(SB)/8, $0
GLOBL panelmask<>(SB), RODATA|NOPTR, $64

// TRANSPOSE4 transposes, in each 128-bit lane, the 4×4 block held by rows
// Y0..Y3 (clobbering Y4..Y7): lane l of row r becomes lane r of row l.
#define TRANSPOSE4 \
	VUNPCKLPS Y1, Y0, Y4       \
	VUNPCKHPS Y1, Y0, Y5       \
	VUNPCKLPS Y3, Y2, Y6       \
	VUNPCKHPS Y3, Y2, Y7       \
	VSHUFPS   $0x44, Y6, Y4, Y0 \
	VSHUFPS   $0xEE, Y6, Y4, Y1 \
	VSHUFPS   $0x44, Y7, Y5, Y2 \
	VSHUFPS   $0xEE, Y7, Y5, Y3

// STORE4 stores rows Y0..Y3, masked by Y8, as four consecutive 8-float
// panel rows at DI.
#define STORE4 \
	VANDPS  Y8, Y0, Y0 \
	VANDPS  Y8, Y1, Y1 \
	VANDPS  Y8, Y2, Y2 \
	VANDPS  Y8, Y3, Y3 \
	VMOVUPS Y0, 0(DI)  \
	VMOVUPS Y1, 32(DI) \
	VMOVUPS Y2, 64(DI) \
	VMOVUPS Y3, 96(DI)

// PAIR1 loads four stride-1 pixels of taps lo and hi into the low and high
// lanes of y.
#define PAIR1(lo, hi, y, x) \
	VMOVUPS     (lo)(SI*1), x \
	VINSERTF128 $1, (hi)(SI*1), y, y

// PAIR2 loads four stride-2 pixels of taps lo and hi into the low and high
// lanes of y: elements 0..3 and 3..6 of each, shuffled to 0, 2, 4, 6. The
// highest element read is 6, the portable loop's last.
#define PAIR2(lo, hi, y, x, t, u) \
	VMOVUPS     (lo)(SI*1), x            \
	VINSERTF128 $1, (hi)(SI*1), y, y     \
	VMOVUPS     12(lo)(SI*1), u          \
	VINSERTF128 $1, 12(hi)(SI*1), t, t   \
	VSHUFPS     $0xD8, t, y, y

// func packConvTAVX(img, dst *float32, off *[8]int, w8, outH, groups, rowSkip, stride int)
//
// One panel of packBConvT: for every output pixel, in ascending (oy, ox),
// the eight floats img[pixel + off[0..7]] go to the next 8-float panel row
// at dst, the lanes from w8 on cleared to +0 (the caller points those taps at
// a real one, so every read stays inside the image). A pixel is
// (oy·stride·wp + ox·stride); ox runs in groups of four (outW = 4·groups)
// and rowSkip is the element step from the end of one output row's pixels
// to the start of the next (stride·wp − stride·outW). Taps c and c+4 share a
// register, one per lane, so a group is eight loads, one in-lane 4×4
// transpose and four 32-byte stores. stride is 1 or 2.
//
// BX, R8..R14 point at the eight taps of pixel (0, 0); SI is the byte offset
// of the current pixel group, DI walks dst, CX counts groups, DX rows; Y8 is
// the lane mask.
TEXT ·packConvTAVX(SB), NOSPLIT, $0-64
	MOVQ    w8+24(FP), AX
	SHLQ    $2, AX
	NEGQ    AX
	LEAQ    panelmask<>+32(SB), CX
	VMOVUPS (CX)(AX*1), Y8
	MOVQ    img+0(FP), SI
	MOVQ    dst+8(FP), DI
	MOVQ    off+16(FP), AX
	MOVQ    outH+32(FP), DX
	MOVQ 0(AX), BX
	LEAQ (SI)(BX*4), BX
	MOVQ 8(AX), R8
	LEAQ (SI)(R8*4), R8
	MOVQ 16(AX), R9
	LEAQ (SI)(R9*4), R9
	MOVQ 24(AX), R10
	LEAQ (SI)(R10*4), R10
	MOVQ 32(AX), R11
	LEAQ (SI)(R11*4), R11
	MOVQ 40(AX), R12
	LEAQ (SI)(R12*4), R12
	MOVQ 48(AX), R13
	LEAQ (SI)(R13*4), R13
	MOVQ 56(AX), R14
	LEAQ (SI)(R14*4), R14
	MOVQ rowSkip+48(FP), AX
	SHLQ $2, AX
	XORQ SI, SI
	CMPQ stride+56(FP), $2
	JEQ  t2row

t1row:
	MOVQ groups+40(FP), CX

t1group:
	PAIR1(BX, R11, Y0, X0)
	PAIR1(R8, R12, Y1, X1)
	PAIR1(R9, R13, Y2, X2)
	PAIR1(R10, R14, Y3, X3)
	TRANSPOSE4
	STORE4
	ADDQ $16, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  t1group
	ADDQ AX, SI
	DECQ DX
	JNZ  t1row
	VZEROUPPER
	RET

t2row:
	MOVQ groups+40(FP), CX

t2group:
	PAIR2(BX, R11, Y0, X0, Y4, X4)
	PAIR2(R8, R12, Y1, X1, Y5, X5)
	PAIR2(R9, R13, Y2, X2, Y6, X6)
	PAIR2(R10, R14, Y3, X3, Y7, X7)
	TRANSPOSE4
	STORE4
	ADDQ $32, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  t2group
	ADDQ AX, SI
	DECQ DX
	JNZ  t2row
	VZEROUPPER
	RET

// func packConvAVX(img, dst *float32, half, chans, kh, kw, wp, plane, stride int)
//
// One fixed-width panel of packBConv: for every tap (c, ky, kx), in that
// order, the four pixels of the panel's first half (at img) and the four of
// its second half (at img + half) go to the next 8-float panel row at dst.
// The pixels of a half are consecutive at stride 1 and every second element
// at stride 2. A tap is the element c·plane + ky·wp + kx past each half.
//
// SI walks channels, R12 kernel rows, R13 taps; AX is half in bytes, DI
// walks dst; BX, DX and CX count channels, kernel rows and taps.
TEXT ·packConvAVX(SB), NOSPLIT, $0-72
	MOVQ img+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ half+16(FP), AX
	SHLQ $2, AX
	MOVQ chans+24(FP), BX
	MOVQ kw+40(FP), R9
	MOVQ wp+48(FP), R10
	SHLQ $2, R10
	MOVQ plane+56(FP), R11
	SHLQ $2, R11
	CMPQ stride+64(FP), $2
	JEQ  f2chan

f1chan:
	MOVQ SI, R12
	MOVQ kh+32(FP), DX

f1row:
	MOVQ R12, R13
	MOVQ R9, CX

f1tap:
	VMOVUPS     (R13), X0
	VINSERTF128 $1, (R13)(AX*1), Y0, Y0
	VMOVUPS     Y0, (DI)
	ADDQ        $4, R13
	ADDQ        $32, DI
	DECQ        CX
	JNZ         f1tap
	ADDQ        R10, R12
	DECQ        DX
	JNZ         f1row
	ADDQ        R11, SI
	DECQ        BX
	JNZ         f1chan
	VZEROUPPER
	RET

f2chan:
	MOVQ SI, R12
	MOVQ kh+32(FP), DX

f2row:
	MOVQ R12, R13
	MOVQ R9, CX

f2tap:
	VMOVUPS     (R13), X0
	VINSERTF128 $1, (R13)(AX*1), Y0, Y0
	VMOVUPS     12(R13), X1
	VINSERTF128 $1, 12(R13)(AX*1), Y1, Y1
	VSHUFPS     $0xD8, Y1, Y0, Y0
	VMOVUPS     Y0, (DI)
	ADDQ        $4, R13
	ADDQ        $32, DI
	DECQ        CX
	JNZ         f2tap
	ADDQ        R10, R12
	DECQ        DX
	JNZ         f2row
	ADDQ        R11, SI
	DECQ        BX
	JNZ         f2chan
	VZEROUPPER
	RET

// FOLD adds taps k0[j], k1[j−1], k2[j−2] onto t[j] for the eight (Y
// registers) or four (X registers) j at DI, one add per tap in that order;
// SI is &k0[j], R8 the byte distance between tap rows and n the chunk's
// bytes.
#define FOLD(a, n) \
	VMOVUPS (SI), a            \
	VADDPS  (DI), a, a         \
	VADDPS  -4(SI)(R8*1), a, a \
	VADDPS  -8(SI)(R8*2), a, a \
	VMOVUPS a, (DI)            \
	ADDQ    $n, SI             \
	ADDQ    $n, DI

// FOLDFIRST is FOLD for the chunk at j = 0: the lanes before the row take −0
// (z) for k1[−1], k2[−2] and k2[−1].
#define FOLDFIRST(a, b, c, z, n) \
	VMOVUPS  (SI), a             \
	VADDPS   (DI), a, a          \
	VMOVUPS  -4(SI)(R8*1), b     \
	VBLENDPS $1, z, b, b         \
	VADDPS   b, a, a             \
	VMOVUPS  -8(SI)(R8*2), c     \
	VBLENDPS $3, z, c, c         \
	VADDPS   c, a, a             \
	VMOVUPS  a, (DI)             \
	ADDQ     $n, SI              \
	ADDQ     $n, DI

// func fold3AVX(dcol, img *float32, chans, kh, outH, n8, n4, wp, plane int)
//
// foldCols' stride-1 three-tap pass for outW = 8·n8 + 4·n4 (n4 is 0 or 1):
// for each kernel row (c, ky) and output row oy, padded row t = img[c·plane
// + (oy+ky)·wp:] takes its three tap rows k0, k1, k2 (consecutive rows of
// dcol, nc = outH·outW apart) as t[j] = ((t[j] + k0[j]) + k1[j−1]) +
// k2[j−2] for j < outW, with −0 for the taps before the row (FOLDFIRST), then
// t[outW] = (t[outW] + k1[outW−1]) + k2[outW−2] and t[outW+1] += k2[outW−1].
//
// SI walks dcol's k0 rows (rows of one tap row are contiguous); R8 is nc in
// bytes; R10, R12 and R9 are the padded image at (c, 0), (c, ky) and
// (c, ky + oy); DI walks a row. BX, DX, CX and R11 count channels, kernel
// rows, output rows and chunks; R13 and R14 are wp and plane in bytes.
TEXT ·fold3AVX(SB), NOSPLIT, $0-72
	MOVQ dcol+0(FP), SI
	MOVQ img+8(FP), R10
	MOVQ chans+16(FP), BX
	MOVQ outH+32(FP), R8
	MOVQ n8+40(FP), AX
	SHLQ $1, AX
	ADDQ n4+48(FP), AX
	IMULQ AX, R8
	SHLQ $4, R8            // nc = outH·outW floats, in bytes
	MOVQ wp+56(FP), R13
	SHLQ $2, R13
	MOVQ plane+64(FP), R14
	SHLQ $2, R14
	VBROADCASTSS negzero<>(SB), Y15

chan:
	MOVQ R10, R12
	MOVQ kh+24(FP), DX

krow:
	MOVQ R12, R9
	MOVQ outH+32(FP), CX

orow:
	MOVQ R9, DI
	MOVQ n8+40(FP), R11
	TESTQ R11, R11
	JZ   first4
	FOLDFIRST(Y0, Y1, Y2, Y15, 32)
	DECQ R11
	JZ   tail4

loop8:
	FOLD(Y0, 32)
	DECQ R11
	JNZ  loop8

tail4:
	CMPQ n4+48(FP), $0
	JEQ  edge
	FOLD(X0, 16)
	JMP  edge

first4:
	FOLDFIRST(X0, X1, X2, X15, 16)

edge:
	// DI = &t[outW], SI = &k0[outW]: k1[outW−1] is at SI + nc − 4, k2[outW−2]
	// and k2[outW−1] at SI + 2nc − 8 and − 4.
	VMOVSS (DI), X0
	VADDSS -4(SI)(R8*1), X0, X0
	VADDSS -8(SI)(R8*2), X0, X0
	VMOVSS X0, (DI)
	VMOVSS 4(DI), X1
	VADDSS -4(SI)(R8*2), X1, X1
	VMOVSS X1, 4(DI)
	ADDQ R13, R9
	DECQ CX
	JNZ  orow

	// SI has walked k0's nc floats; skip k1 and k2 to the next kernel row.
	LEAQ (SI)(R8*2), SI
	ADDQ R13, R12
	DECQ DX
	JNZ  krow
	ADDQ R14, R10
	DECQ BX
	JNZ  chan
	VZEROUPPER
	RET

// FOLD2 is one stride-2 chunk: X4 holds k2[m−1..m+2] (its lane 0 already −0
// at m = 0), SI is &k0[m], DI is &t[2m]. Advances SI by four floats and DI
// by eight.
#define FOLD2 \
	VMOVUPS     (SI), X0           \
	VMOVUPS     (SI)(R8*1), X1     \
	VUNPCKLPS   X1, X0, X2         \
	VUNPCKHPS   X1, X0, X3         \
	VINSERTF128 $1, X3, Y2, Y2     \
	VUNPCKLPS   X15, X4, X5        \
	VUNPCKHPS   X15, X4, X6        \
	VINSERTF128 $1, X6, Y5, Y5     \
	VADDPS      (DI), Y2, Y2       \
	VADDPS      Y5, Y2, Y2         \
	VMOVUPS     Y2, (DI)           \
	ADDQ        $16, SI            \
	ADDQ        $32, DI

// func fold3s2AVX(dcol, img *float32, chans, kh, outH, groups, wp, plane int)
//
// foldCols' stride-2 three-tap pass for outW = 4·groups: for each kernel row
// (c, ky) and output row oy, padded row t = img[c·plane + (2·oy+ky)·wp:]
// takes its tap rows k0, k1, k2 as t[2m] = (t[2m] + k0[m]) + k2[m−1] and
// t[2m+1] = t[2m+1] + k1[m], then t[2·outW] += k2[outW−1]. A chunk is four
// m: k0 and k1 interleave into A, k2 (−0 before the row) and −0 into B, and
// t[2m..2m+7] becomes (t + A) + B, x + (−0) leaving a lane unchanged.
//
// Registers as in fold3AVX; R11 counts chunks.
TEXT ·fold3s2AVX(SB), NOSPLIT, $0-64
	MOVQ dcol+0(FP), SI
	MOVQ img+8(FP), R10
	MOVQ chans+16(FP), BX
	MOVQ outH+32(FP), R8
	IMULQ groups+40(FP), R8
	SHLQ $4, R8            // nc = outH·outW floats, in bytes
	MOVQ wp+48(FP), R13
	SHLQ $2, R13
	MOVQ plane+56(FP), R14
	SHLQ $2, R14
	VBROADCASTSS negzero<>(SB), Y15

s2chan:
	MOVQ R10, R12
	MOVQ kh+24(FP), DX

s2krow:
	MOVQ R12, R9
	MOVQ outH+32(FP), CX

s2orow:
	MOVQ R9, DI
	MOVQ groups+40(FP), R11
	VMOVUPS -4(SI)(R8*2), X4
	VBLENDPS $1, X15, X4, X4
	FOLD2
	DECQ R11
	JZ   s2edge

s2loop:
	VMOVUPS -4(SI)(R8*2), X4
	FOLD2
	DECQ R11
	JNZ  s2loop

s2edge:
	// DI = &t[2·outW], SI = &k0[outW]: k2[outW−1] is at SI + 2nc − 4.
	VMOVSS (DI), X0
	VADDSS -4(SI)(R8*2), X0, X0
	VMOVSS X0, (DI)
	LEAQ (R9)(R13*2), R9
	DECQ CX
	JNZ  s2orow

	LEAQ (SI)(R8*2), SI
	ADDQ R13, R12
	DECQ DX
	JNZ  s2krow
	ADDQ R14, R10
	DECQ BX
	JNZ  s2chan
	VZEROUPPER
	RET

// ROWCOPY copies R9 floats (a multiple of 4) from SI to DI, advancing both;
// clobbers R8 and Y0.
#define ROWCOPY(l8, l4, done) \
	MOVQ    R9, R8       \
l8:                      \
	CMPQ    R8, $8       \
	JLT     l4           \
	VMOVUPS (SI), Y0     \
	VMOVUPS Y0, (DI)     \
	ADDQ    $32, SI      \
	ADDQ    $32, DI      \
	SUBQ    $8, R8       \
	JMP     l8           \
l4:                      \
	TESTQ   R8, R8       \
	JZ      done         \
	VMOVUPS (SI), X0     \
	VMOVUPS X0, (DI)     \
	ADDQ    $16, SI      \
	ADDQ    $16, DI      \
done:

// func padAVX(src, dst *float32, chans, h, w, pad, wp int)
//
// padImage for w a multiple of 4 and pad > 0: writes the padded image
// [chans, h+2·pad, wp] in memory order, each interior row copied from src
// and each run of border before it (pad·wp + pad floats before the first;
// 2·pad between two rows; 2·pad·wp + 2·pad between channels) zeroed with
// whole 32-byte stores, the last of which may run on into the row, which its
// copy then overwrites. The run after the last row (pad·wp + pad) is zeroed
// exactly. At least w + pad·wp + pad ≥ 8 floats follow any other run, so no
// store leaves the image.
//
// SI walks src, DI dst; CX is the length of the border run to zero and AX
// its end, R12, R13 and R14 the three run lengths; BX and DX count channels
// and rows.
TEXT ·padAVX(SB), NOSPLIT, $0-56
	MOVQ   src+0(FP), SI
	MOVQ   dst+8(FP), DI
	MOVQ   chans+16(FP), BX
	MOVQ   h+24(FP), DX
	MOVQ   w+32(FP), R9
	MOVQ   pad+40(FP), R10
	MOVQ   R10, R12
	IMULQ  wp+48(FP), R12
	ADDQ   R10, R12          // pad·wp + pad
	LEAQ   (R10)(R10*1), R13 // 2·pad
	LEAQ   (R12)(R12*1), R14 // 2·pad·wp + 2·pad
	VXORPS Y15, Y15, Y15
	MOVQ   R12, CX

prun:
	LEAQ (DI)(CX*4), AX

prun8:
	VMOVUPS Y15, (DI)
	ADDQ    $32, DI
	CMPQ    DI, AX
	JLT     prun8
	MOVQ    AX, DI
	ROWCOPY(pcopy8, pcopy4, pcopied)
	MOVQ    R13, CX
	DECQ    DX
	JNZ     prun
	MOVQ    h+24(FP), DX
	MOVQ    R14, CX
	DECQ    BX
	JNZ     prun
	MOVQ    R12, CX

plast8:
	CMPQ    CX, $8
	JLT     plast1
	VMOVUPS Y15, (DI)
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     plast8

plast1:
	TESTQ CX, CX
	JZ    pdone
	MOVL  $0, (DI)
	ADDQ  $4, DI
	DECQ  CX
	JMP   plast1

pdone:
	VZEROUPPER
	RET

// func unpadAVX(img, dst *float32, chans, h, w, pad, wp int)
//
// unpadImage for w a multiple of 4: copies the h interior rows of w floats
// of each channel plane of img out to dst, contiguously.
//
// SI walks img from its first interior pixel, DI walks dst; R10 is the step
// from the end of one interior row to the start of the next, R11 the extra
// step between channels, in bytes; BX and DX count channels and rows.
TEXT ·unpadAVX(SB), NOSPLIT, $0-56
	MOVQ  img+0(FP), SI
	MOVQ  dst+8(FP), DI
	MOVQ  chans+16(FP), BX
	MOVQ  w+32(FP), R9
	MOVQ  pad+40(FP), R10
	MOVQ  wp+48(FP), R11
	MOVQ  R10, AX
	IMULQ R11, AX
	ADDQ  R10, AX
	LEAQ  (SI)(AX*4), SI     // &img[pad·wp + pad]
	IMULQ R10, R11
	SHLQ  $3, R11            // 2·pad·wp floats, in bytes
	SHLQ  $3, R10            // 2·pad floats, in bytes

uchan:
	MOVQ h+24(FP), DX

urow:
	ROWCOPY(ucopy8, ucopy4, ucopied)
	ADDQ R10, SI
	DECQ DX
	JNZ  urow
	ADDQ R11, SI
	DECQ BX
	JNZ  uchan
	VZEROUPPER
	RET
