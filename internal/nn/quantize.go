package nn

import "math"

// Quantized8 is an 8-bit affine quantization of a float32 vector:
// value ≈ Min + Scale·code. It cuts parameter-transfer bytes by ~4× at a
// bounded per-element error of Scale/2 — an optional communication
// optimization for the edge-cloud protocol.
type Quantized8 struct {
	Min   float32
	Scale float32
	Codes []byte
}

// Quantize8 encodes vec with per-tensor affine 8-bit quantization: code =
// round-half-away-from-zero((v − Min)/Scale), clamped to [0, 255].
func Quantize8(vec []float32) Quantized8 {
	if len(vec) == 0 {
		return Quantized8{}
	}
	lo, hi := vec[0], vec[0]
	for _, v := range vec[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	scale := (hi - lo) / 255
	q := Quantized8{Min: lo, Scale: scale, Codes: make([]byte, len(vec))}
	if scale <= 0 {
		// Constant vector: every element equals lo exactly. Scale 0 makes the
		// reconstruction Min + 0·code = Min — exact — and MaxError 0. (The old
		// sentinel Scale=1 decoded exactly too, but reported a bogus 0.5
		// worst-case error, which poisoned error-budget decisions upstream.)
		q.Scale = 0
		return q
	}
	// No element is below lo and inv is not negative, so x = (v − lo)·inv is a
	// float32 ≥ 0 or a NaN (a NaN element, a NaN or infinite range). For
	// x ≥ 0, x + 0.5 is exact in float64 wherever the code is not clamped
	// anyway, and truncating it is rounding half away from zero — math.Round
	// without the call. (In float32 the sum is not exact: 0.5 − 2⁻²⁵ would
	// round up.) The codes that leaves — the clamped top of the range, NaN —
	// are redone below: a call inside the loop, even a cold one, costs every
	// element a register spill and halves the loop's speed.
	inv := 1 / scale
	codes := q.Codes[:len(vec)]
	left := false
	for i, v := range vec {
		f := float64((v-lo)*inv) + 0.5
		if !(f < 256) {
			left, f = true, 0
		}
		codes[i] = byte(int32(f))
	}
	if left {
		for i, v := range vec {
			if x := (v - lo) * inv; !(float64(x)+0.5 < 256) {
				codes[i] = roundCode(x)
			}
		}
	}
	return q
}

// roundCode is the rounding every code used to go through. What a NaN
// converts to is the platform's choice, so for NaN the conversion stays the
// one expression it has always been.
func roundCode(x float32) byte {
	c := math.Round(float64(x))
	if c < 0 {
		c = 0
	}
	if c > 255 {
		c = 255
	}
	return byte(c)
}

// Dequantize8 decodes back to float32s.
func (q Quantized8) Dequantize8() []float32 {
	out := make([]float32, len(q.Codes))
	q.DequantizeInto(out)
	return out
}

// DequantizeInto decodes into dst, which must hold len(q.Codes) elements —
// for decoders that already own the destination (the wire codec writes
// straight into its output vector). The conversion rounds the product before
// the sum: a platform that fuses multiply-adds would decode other bits, and
// the two ends of a link must hold one reconstruction.
func (q Quantized8) DequantizeInto(dst []float32) {
	dst = dst[:len(q.Codes)]
	for i, c := range q.Codes {
		dst[i] = q.Min + float32(q.Scale*float32(c))
	}
}

// AddInto writes base[i] plus the i-th decoded value into dst[i] — a delta
// payload's dequantize and its add to the reference in one pass, each
// rounded to float32 as DequantizeInto followed by the add rounds them. dst
// and base hold len(q.Codes) elements and may be the same array.
func (q Quantized8) AddInto(dst, base []float32) {
	dst, base = dst[:len(q.Codes)], base[:len(q.Codes)]
	for i, c := range q.Codes {
		dst[i] = base[i] + float32(q.Min+float32(q.Scale*float32(c)))
	}
}

// At decodes element i alone.
func (q Quantized8) At(i int) float32 { return q.Min + float32(q.Scale*float32(q.Codes[i])) }

// MaxError returns the worst-case reconstruction error (half a step).
func (q Quantized8) MaxError() float32 { return q.Scale / 2 }

// WireBytes returns the serialized size: header (8 bytes) + one byte per
// element.
func (q Quantized8) WireBytes() int64 { return 8 + int64(len(q.Codes)) }

// QuantizeChunks quantizes vec in fixed-size chunks (per-chunk min/scale),
// trading a little header overhead for much lower error on vectors whose
// ranges vary across regions (e.g. different layers concatenated).
func QuantizeChunks(vec []float32, chunk int) []Quantized8 {
	if chunk <= 0 {
		chunk = 1024
	}
	out := make([]Quantized8, 0, (len(vec)+chunk-1)/chunk)
	for start := 0; start < len(vec); start += chunk {
		end := start + chunk
		if end > len(vec) {
			end = len(vec)
		}
		out = append(out, Quantize8(vec[start:end]))
	}
	return out
}
