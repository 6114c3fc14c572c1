package nn

import (
	"math"

	"repro/internal/tensor"
)

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
	lo, hi := Range(vec)
	return Quantize8Range(make([]byte, len(vec)), vec, lo, hi)
}

// Range returns the least and the greatest element of vec (len(vec) > 0) as
// Quantize8 finds them: starting from vec[0], v < lo and then v > hi for every
// element in index order. So a NaN first element is the whole range and a later
// NaN none of it, and of −0 and +0 whichever comes first stands. A caller that
// finds the range during a walk of its own makes exactly these comparisons in
// this order, and Quantize8Range then codes what Quantize8 would.
func Range(vec []float32) (lo, hi float32) {
	lo, hi = vec[0], vec[0]
	for _, v := range vec[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// DiffRange writes vals − ref into diff and returns the difference's range,
// found in the same walk with Range's comparisons in Range's order (the first
// difference starts both ends; comparing it with itself moves neither): the
// delta codec's walk of one chunk. vals is not empty; diff and ref hold at
// least len(vals) elements.
// Whole blocks of eight run through an AVX2 twin where one is selected
// (diffRangeBlocks); a chunk whose range the twin cannot vouch for is walked
// again here.
func DiffRange(diff, vals, ref []float32) (lo, hi float32) {
	// Re-sliced to one length so the loop carries no bounds check, and so
	// that the twin's reach is checked before it runs.
	diff, ref = diff[:len(vals)], ref[:len(vals)]
	if lo, hi, ok := diffRangeBlocks(diff, vals, ref); ok {
		return lo, hi
	}
	lo = vals[0] - ref[0]
	hi = lo
	for i, x := range vals {
		d := x - ref[i]
		diff[i] = d
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	return lo, hi
}

// codecTwins selects the AVX2 twins of the codec's chunk loops — DiffRange,
// Quantize8Range and Quantized8.AddInto (quantize_amd64.s) — over their Go
// loops, which stay the portable path and the oracle the twins are pinned
// against. Set at package init from the CPU flag tensor probes; only tests
// toggle it afterwards (CodecTwinsForTests).
var codecTwins = tensor.HasAVX2()

// CodecTwinsForTests selects the codec's AVX2 twins (on, where the CPU has
// AVX2) or their Go loops (off) and returns the previous setting. It exists
// for tests that hold the twins to the Go loops; nothing else may call it.
func CodecTwinsForTests(on bool) (was bool) {
	was, codecTwins = codecTwins, on && tensor.HasAVX2()
	return was
}

// maxScale is the largest step whose 255th multiple is finite: math.MaxFloat32
// is 255 × 65793 × 2¹⁰⁴, so this quotient is exact and so is 255·maxScale.
const maxScale float32 = math.MaxFloat32 / 255

// Quantize8Range is Quantize8 for a caller that already holds vec's range (lo
// and hi as Range finds them) and an array for the codes (len(vec) bytes, every
// one overwritten, which the result's Codes is): one pass over vec and no
// allocation.
func Quantize8Range(codes []byte, vec []float32, lo, hi float32) Quantized8 {
	codes = codes[:len(vec)]
	if len(vec) == 0 {
		return Quantized8{Codes: codes}
	}
	scale := (hi - lo) / 255
	if scale > math.MaxFloat32 && hi <= math.MaxFloat32 && lo >= -math.MaxFloat32 {
		// Two finite ends further apart than a float32 reaches. (hi − lo)/255
		// would be +Inf, and Min + Inf·0 decodes NaN. The widest step that stays
		// finite spans lo to lo + math.MaxFloat32 (finite: lo is negative); the
		// elements above that clamp to code 255.
		scale = maxScale
	}
	q := Quantized8{Min: lo, Scale: scale, Codes: codes}
	if scale <= 0 {
		// Constant vector: every element equals lo exactly. Scale 0 makes the
		// reconstruction Min + 0·code = Min — exact — and MaxError 0. (The old
		// sentinel Scale=1 decoded exactly too, but reported a bogus 0.5
		// worst-case error, which poisoned error-budget decisions upstream.)
		q.Scale = 0
		clear(codes)
		return q
	}
	// No element is below lo and inv is not negative, so x = (v − lo)·inv is a
	// float32 ≥ 0 or a NaN (a NaN element, a NaN or infinite range) or +Inf (an
	// element more than math.MaxFloat32 above lo). For x ≥ 0, x + 0.5 is exact in
	// float64 wherever the code is not clamped anyway, and truncating it is
	// rounding half away from zero — math.Round without the call. (In float32
	// the sum is not exact: 0.5 − 2⁻²⁵ would round up.) The codes that leaves —
	// the clamped top of the range, NaN — are redone below: a call inside the
	// loop, even a cold one, costs every element a register spill and halves the
	// loop's speed.
	//
	// Whole blocks of eight go through the AVX2 twin where one is selected
	// (quantize8Blocks): the same float32 subtract and multiply, exact widen,
	// float64 add and truncation, a lane that fails the test left to the pass
	// below as here.
	inv := 1 / scale
	i, left := quantize8Blocks(codes, vec, lo, inv)
	for ; i < len(vec); i++ {
		f := float64((vec[i]-lo)*inv) + 0.5
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
// the two ends of a link must hold one reconstruction. It is not AddInto over
// a zero base: +0 + −0 is +0, so a −0 decoded value would come out +0.
func (q Quantized8) DequantizeInto(dst []float32) {
	dst = dst[:len(q.Codes)]
	for i, c := range q.Codes {
		dst[i] = q.Min + float32(q.Scale*float32(c))
	}
}

// AddInto writes base[i] plus the i-th decoded value into dst[i] — a delta
// payload's dequantize and its add to the reference in one pass, each
// rounded to float32 as DequantizeInto followed by the add rounds them. dst
// and base hold len(q.Codes) elements and may be the same array. Whole blocks
// of eight run through an AVX2 twin where one is selected (addIntoBlocks):
// the same multiply, then add of Min, then add to base, no fused step.
func (q Quantized8) AddInto(dst, base []float32) {
	dst, base = dst[:len(q.Codes)], base[:len(q.Codes)]
	for i := addIntoBlocks(q, dst, base); i < len(q.Codes); i++ {
		dst[i] = base[i] + float32(q.Min+float32(q.Scale*float32(q.Codes[i])))
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
