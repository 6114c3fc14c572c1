//go:build amd64

package nn

// The codec's chunk loops pick their AVX2 twin (quantize_amd64.s) where
// codecTwins is set. Each twin runs the leading whole blocks of eight and
// its Go loop the rest; the callers have already re-sliced every operand to
// the walk's length, so a twin never reaches past a slice's end.

// diffRangeBlocks is DiffRange through its twin. The vector minimum and
// maximum are Range's ends only where the blocks hold no NaN (a first NaN is
// the whole range, a later one none of it) and neither end is a zero (of −0
// and +0 Range keeps whichever comes first; VMINPS keeps either): ok is false
// for any other chunk, which DiffRange then walks again. The tail goes on
// with Range's own comparisons, which pass over a NaN as Range does.
func diffRangeBlocks(diff, vals, ref []float32) (lo, hi float32, ok bool) {
	n8 := len(vals) / 8
	if !codecTwins || n8 == 0 {
		return 0, 0, false
	}
	lo, hi, nan := diffRangeAVX2(&diff[0], &vals[0], &ref[0], n8)
	for i := 8 * n8; i < len(vals); i++ {
		d := vals[i] - ref[i]
		diff[i] = d
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	return lo, hi, !nan && lo != 0 && hi != 0
}

// quantize8Blocks runs Quantize8Range's loop over the leading whole blocks
// of eight through its twin and returns how many elements it coded and
// whether a lane failed f < 256 (coded 0 for the fix-up pass).
func quantize8Blocks(codes []byte, vec []float32, lo, inv float32) (int, bool) {
	n8 := len(vec) / 8
	if !codecTwins || n8 == 0 {
		return 0, false
	}
	return 8 * n8, quantize8AVX2(&codes[0], &vec[0], lo, inv, n8)
}

// addIntoBlocks runs AddInto's loop over the leading whole blocks of eight
// through its twin and returns how many elements it wrote.
func addIntoBlocks(q Quantized8, dst, base []float32) int {
	n8 := len(q.Codes) / 8
	if !codecTwins || n8 == 0 {
		return 0
	}
	addIntoAVX2(&dst[0], &base[0], &q.Codes[0], q.Min, q.Scale, n8)
	return 8 * n8
}

//go:noescape
func diffRangeAVX2(diff, vals, ref *float32, n8 int) (lo, hi float32, nan bool)

//go:noescape
func quantize8AVX2(codes *byte, vec *float32, lo, inv float32, n8 int) (left bool)

//go:noescape
func addIntoAVX2(dst, base *float32, codes *byte, min, scale float32, n8 int)
