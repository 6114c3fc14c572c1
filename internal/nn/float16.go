package nn

import "math"

// IEEE 754 binary16 ("half") conversion. The wire codec carries int8 codes
// only (docs/PROTOCOL.md "Wire format v2"); the benchmark's quantizer probes
// time QuantizeF16 beside nn.Quantize8. Encoding uses round-to-nearest-even,
// the same deterministic rule on every platform.

// F16FromF32 converts a float32 to its binary16 bit pattern with
// round-to-nearest-even. Overflow saturates to ±Inf; NaN stays NaN;
// subnormal halves are produced exactly.
func F16FromF32(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23&0xff) - 127
	mant := b & 0x7fffff

	switch {
	case exp == 128: // Inf or NaN
		if mant != 0 {
			return sign | 0x7e00 // canonical quiet NaN
		}
		return sign | 0x7c00
	case exp > 15: // overflow → ±Inf
		return sign | 0x7c00
	case exp >= -14: // normal half
		// 10 mantissa bits; round the dropped 13 to nearest-even.
		h := uint32(exp+15)<<10 | mant>>13
		round := mant & 0x1fff
		if round > 0x1000 || (round == 0x1000 && h&1 == 1) {
			h++ // may carry into the exponent — that is the correct result
		}
		return sign | uint16(h)
	case exp >= -25: // subnormal half (or rounds up into one)
		// The half's subnormal unit is 2⁻²⁴: h = round(1.mant · 2^(exp+24)),
		// computed as a right shift of the 24-bit significand by −exp−1 with
		// round-to-nearest-even on the dropped bits.
		mant |= 0x800000
		shift := uint32(-exp - 1) // 14 (exp=-15) … 24 (exp=-25)
		h := mant >> shift
		dropped := mant & ((1 << shift) - 1)
		half := uint32(1) << (shift - 1)
		if dropped > half || (dropped == half && h&1 == 1) {
			h++
		}
		return sign | uint16(h)
	default: // underflow → ±0
		return sign
	}
}

// F16ToF32 converts a binary16 bit pattern back to float32 (exact: every
// half value is representable as a float32).
func F16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	mant := uint32(h & 0x3ff)
	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign) // ±0
		}
		// Subnormal half: renormalize into a float32.
		e := uint32(113)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (mant&0x3ff)<<13)
	case 0x1f:
		if mant == 0 {
			return math.Float32frombits(sign | 0x7f800000) // ±Inf
		}
		return math.Float32frombits(sign | 0x7fc00000) // NaN
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | mant<<13)
	}
}

// QuantizeF16 encodes a float32 vector as binary16 codes (2 B/element,
// relative error ≤ 2⁻¹¹ for normal values).
func QuantizeF16(vec []float32) []uint16 {
	codes := make([]uint16, len(vec))
	for i, v := range vec {
		codes[i] = F16FromF32(v)
	}
	return codes
}

// DequantizeF16 reverses QuantizeF16.
func DequantizeF16(codes []uint16) []float32 {
	out := make([]float32, len(codes))
	for i, h := range codes {
		out[i] = F16ToF32(h)
	}
	return out
}
