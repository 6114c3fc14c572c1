//go:build amd64

#include "textflag.h"

// AVX2 twins of the delta codec's chunk loops (quantize.go). Each performs
// its Go loop's operations, one separately rounded IEEE operation at a time,
// in the Go loop's order and with its operand roles (the first source of a
// subtract or add is the Go expression's left operand), so every output bit
// but a NaN's payload matches (TestCodecTwinsMatchGoLoop). No FMA, no
// reciprocal approximation. The blocks are eight floats; the wrappers
// (quantize_amd64.go) run the tail in Go. VZEROUPPER before every RET.

DATA half<>+0(SB)/8, $0.5
GLOBL half<>(SB), RODATA|NOPTR, $8

DATA c256<>+0(SB)/8, $256.0
GLOBL c256<>(SB), RODATA|NOPTR, $8

// VPSHUFB masks that move byte 0 of each of four int32 lanes to bytes 0..3
// (lowbytes) or 4..7 (highbytes) and clear every other byte: the low byte of
// each lane is byte(int32(f)), with no saturation.
DATA lowbytes<>+0(SB)/8, $0xffffffff0c080400
DATA lowbytes<>+8(SB)/8, $-1
GLOBL lowbytes<>(SB), RODATA|NOPTR, $16

DATA highbytes<>+0(SB)/8, $0x0c080400ffffffff
DATA highbytes<>+8(SB)/8, $-1
GLOBL highbytes<>(SB), RODATA|NOPTR, $16

// func diffRangeAVX2(diff, vals, ref *float32, n8 int) (lo, hi float32, nan bool)
//
// diff[i] = vals[i] − ref[i] over n8 ≥ 1 blocks of eight (VSUBPS, vals the
// first source), and the least and greatest difference by VMINPS/VMAXPS
// lane-wise, then across lanes. nan reports a NaN among the differences.
// Where there is one, or where an end is a zero, lo and hi are not Range's
// ends (VMINPS does not order ±0 or NaN as Range's comparisons do): the
// wrapper checks and walks the chunk again.
//
// SI, DX and DI walk vals, ref and diff; CX counts blocks. Y1 and Y2 hold
// the lane-wise least and greatest, Y3 the lanes that have seen a NaN.
TEXT ·diffRangeAVX2(SB), NOSPLIT, $0-41
	MOVQ    diff+0(FP), DI
	MOVQ    vals+8(FP), SI
	MOVQ    ref+16(FP), DX
	MOVQ    n8+24(FP), CX
	VMOVUPS (SI), Y0
	VSUBPS  (DX), Y0, Y0
	VMOVUPS Y0, (DI)
	VMOVAPS Y0, Y1
	VMOVAPS Y0, Y2
	VCMPPS  $3, Y0, Y0, Y3
	JMP     drnext

drloop:
	VMOVUPS (SI), Y0
	VSUBPS  (DX), Y0, Y0
	VMOVUPS Y0, (DI)
	VMINPS  Y0, Y1, Y1
	VMAXPS  Y0, Y2, Y2
	VCMPPS  $3, Y0, Y0, Y4
	VORPS   Y4, Y3, Y3

drnext:
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  drloop

	VEXTRACTF128 $1, Y1, X4
	VMINPS       X4, X1, X1
	VPERMILPS    $0x4e, X1, X4
	VMINPS       X4, X1, X1
	VPERMILPS    $0xb1, X1, X4
	VMINPS       X4, X1, X1
	VMOVSS       X1, lo+32(FP)
	VEXTRACTF128 $1, Y2, X4
	VMAXPS       X4, X2, X2
	VPERMILPS    $0x4e, X2, X4
	VMAXPS       X4, X2, X2
	VPERMILPS    $0xb1, X2, X4
	VMAXPS       X4, X2, X2
	VMOVSS       X2, hi+36(FP)
	VMOVMSKPS    Y3, AX
	TESTL        AX, AX
	SETNE        nan+40(FP)
	VZEROUPPER
	RET

// func quantize8AVX2(codes *byte, vec *float32, lo, inv float32, n8 int) (left bool)
//
// Quantize8Range's loop over n8 ≥ 1 blocks of eight: f = float64((v − lo)·inv)
// + 0.5 — VSUBPS, VMULPS, an exact VCVTPS2PD widen, VADDPD — and
// codes[i] = byte(int32(f)) by a truncating VCVTTPD2DQ and the low byte of
// each lane. A lane where !(f < 256) (VCMPPD LT, false on NaN) is coded 0,
// as in the Go loop, and sets left, which sends Quantize8Range's fix-up pass
// over the vector.
//
// SI walks vec, DI codes; CX counts blocks. Y10, Y11, Y12 and Y13 hold lo,
// inv, 0.5 and 256 in every lane, X14 and X15 the byte masks; Y9 keeps the
// lanes that passed every test so far.
TEXT ·quantize8AVX2(SB), NOSPLIT, $0-33
	MOVQ         codes+0(FP), DI
	MOVQ         vec+8(FP), SI
	VBROADCASTSS lo+16(FP), Y10
	VBROADCASTSS inv+20(FP), Y11
	MOVQ         n8+24(FP), CX
	VBROADCASTSD half<>(SB), Y12
	VBROADCASTSD c256<>(SB), Y13
	VMOVDQU      lowbytes<>(SB), X14
	VMOVDQU      highbytes<>(SB), X15
	VCMPPD       $0, Y12, Y12, Y9

qloop:
	VMOVUPS      (SI), Y0
	VSUBPS       Y10, Y0, Y0
	VMULPS       Y11, Y0, Y0
	VEXTRACTF128 $1, Y0, X2
	VCVTPS2PD    X0, Y1
	VCVTPS2PD    X2, Y2
	VADDPD       Y12, Y1, Y1
	VADDPD       Y12, Y2, Y2
	VCMPPD       $1, Y13, Y1, Y3
	VCMPPD       $1, Y13, Y2, Y4
	VANDPD       Y3, Y1, Y1
	VANDPD       Y4, Y2, Y2
	VANDPD       Y3, Y9, Y9
	VANDPD       Y4, Y9, Y9
	VCVTTPD2DQY  Y1, X1
	VCVTTPD2DQY  Y2, X2
	VPSHUFB      X14, X1, X1
	VPSHUFB      X15, X2, X2
	VPOR         X2, X1, X1
	VMOVQ        X1, (DI)
	ADDQ         $32, SI
	ADDQ         $8, DI
	DECQ         CX
	JNZ          qloop

	VMOVMSKPD Y9, AX
	CMPL      AX, $15
	SETNE     left+32(FP)
	VZEROUPPER
	RET

// func addIntoAVX2(dst, base *float32, codes *byte, min, scale float32, n8 int)
//
// AddInto's loop over n8 ≥ 1 blocks of eight: dst[i] = base[i] +
// (Min + Scale·float32(codes[i])), each operation rounded on its own — the
// code zero-extended and converted exactly (VPMOVZXBD, VCVTDQ2PS), VMULPS,
// VADDPS with the product first, VADDPS with the decoded value first. dst
// and base may be the same array.
//
// SI walks codes, BX base, DI dst; CX counts blocks. Y10 and Y11 hold Min
// and Scale in every lane.
TEXT ·addIntoAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         base+8(FP), BX
	MOVQ         codes+16(FP), SI
	VBROADCASTSS min+24(FP), Y10
	VBROADCASTSS scale+28(FP), Y11
	MOVQ         n8+32(FP), CX

aloop:
	VPMOVZXBD (SI), Y0
	VCVTDQ2PS Y0, Y0
	VMULPS    Y11, Y0, Y0
	VADDPS    Y10, Y0, Y0
	VADDPS    (BX), Y0, Y0
	VMOVUPS   Y0, (DI)
	ADDQ      $8, SI
	ADDQ      $32, BX
	ADDQ      $32, DI
	DECQ      CX
	JNZ       aloop
	VZEROUPPER
	RET
