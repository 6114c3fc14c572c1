package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestQuantize8RoundTripErrorBound(t *testing.T) {
	rng := tensor.NewRNG(1)
	vec := make([]float32, 1000)
	for i := range vec {
		vec[i] = float32(rng.NormFloat64() * 3)
	}
	q := Quantize8(vec)
	back := q.Dequantize8()
	maxErr := q.MaxError()
	for i := range vec {
		if diff := float32(math.Abs(float64(vec[i] - back[i]))); diff > maxErr+1e-6 {
			t.Fatalf("element %d error %v exceeds bound %v", i, diff, maxErr)
		}
	}
	if q.WireBytes() >= int64(len(vec))*4 {
		t.Fatalf("quantization did not compress: %d bytes", q.WireBytes())
	}
}

func TestQuantize8ExtremesExact(t *testing.T) {
	vec := []float32{-2, 0.5, 7}
	back := Quantize8(vec).Dequantize8()
	if back[0] != -2 {
		t.Fatalf("min not exact: %v", back[0])
	}
	if math.Abs(float64(back[2]-7)) > 1e-5 {
		t.Fatalf("max not ≈ exact: %v", back[2])
	}
}

func TestQuantize8ConstantAndEmpty(t *testing.T) {
	q := Quantize8([]float32{3, 3, 3})
	for _, v := range q.Dequantize8() {
		if v != 3 {
			t.Fatalf("constant vector decoded to %v", v)
		}
	}
	if got := Quantize8(nil).Dequantize8(); len(got) != 0 {
		t.Fatal("empty vector should round trip to empty")
	}
}

func TestQuantize8ConstantVectorExactAndZeroError(t *testing.T) {
	// Regression: the old encoder clamped a constant vector's scale to the
	// sentinel 1, so MaxError reported 0.5 even though reconstruction was
	// exact. Constant vectors must now encode with Scale 0 and report 0.
	for _, c := range []float32{-7.25, 0, 1e-30, 42} {
		vec := []float32{c, c, c, c, c}
		q := Quantize8(vec)
		if q.MaxError() != 0 {
			t.Fatalf("constant vector %v: MaxError %v, want 0", c, q.MaxError())
		}
		for i, v := range q.Dequantize8() {
			if v != c {
				t.Fatalf("constant vector %v decoded element %d to %v", c, i, v)
			}
		}
	}
	// Near-constant: the bound must hold and stay far below the bogus 0.5.
	vec := []float32{1, 1 + 1e-6, 1 - 1e-6, 1}
	q := Quantize8(vec)
	if q.MaxError() > 1e-6 {
		t.Fatalf("near-constant MaxError %v implausibly large", q.MaxError())
	}
	back := q.Dequantize8()
	for i := range vec {
		if diff := math.Abs(float64(vec[i] - back[i])); diff > float64(q.MaxError())+1e-9 {
			t.Fatalf("near-constant element %d error %v exceeds bound %v", i, diff, q.MaxError())
		}
	}
	// Chunked round trip over a mixed constant/varying vector.
	mixed := make([]float32, 300)
	for i := 100; i < 200; i++ {
		mixed[i] = float32(i%7) * 0.125
	}
	back = dequantizeAll(QuantizeChunks(mixed, 100))
	for i := 0; i < 100; i++ {
		if back[i] != 0 || back[i+200] != 0 {
			t.Fatal("constant chunks must reconstruct exactly")
		}
	}
}

// dequantizeAll decodes a chunked vector back into one slice.
func dequantizeAll(chunks []Quantized8) (out []float32) {
	for _, q := range chunks {
		out = append(out, q.Dequantize8()...)
	}
	return out
}

func TestQuantizeChunksReducesError(t *testing.T) {
	// A vector with two very different ranges: per-chunk quantization should
	// beat whole-vector quantization on reconstruction error.
	vec := make([]float32, 2048)
	rng := tensor.NewRNG(3)
	for i := 0; i < 1024; i++ {
		vec[i] = float32(rng.NormFloat64()) * 0.01 // tight range
	}
	for i := 1024; i < 2048; i++ {
		vec[i] = float32(rng.NormFloat64()) * 10 // wide range
	}
	mse := func(a, b []float32) float64 {
		var s float64
		for i := range a {
			d := float64(a[i] - b[i])
			s += d * d
		}
		return s / float64(len(a))
	}
	whole := Quantize8(vec).Dequantize8()
	chunked := dequantizeAll(QuantizeChunks(vec, 1024))
	if mse(vec, chunked) >= mse(vec, whole) {
		t.Fatalf("chunked MSE %v not better than whole %v", mse(vec, chunked), mse(vec, whole))
	}
}

func TestQuantizeChunksRoundTripQuick(t *testing.T) {
	f := func(seed int64, chunkRaw uint8) bool {
		rng := tensor.NewRNG(seed%999 + 1)
		n := 1 + rng.Intn(500)
		vec := make([]float32, n)
		for i := range vec {
			vec[i] = float32(rng.NormFloat64() * 5)
		}
		chunk := int(chunkRaw)%64 + 1
		back := dequantizeAll(QuantizeChunks(vec, chunk))
		if len(back) != n {
			return false
		}
		// Error bounded per chunk.
		for _, q := range QuantizeChunks(vec, chunk) {
			if q.MaxError() < 0 {
				return false
			}
		}
		for i := range vec {
			if math.Abs(float64(vec[i]-back[i])) > float64(10.0/255*40)+1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// quantize8Reference is Quantize8 as it was before its rounding lost the
// math.Round call — the loop every code is held to, bit for bit — with the one
// later change of what it codes: two finite ends whose distance overflows get
// the widest finite step (TestQuantize8FiniteRangeOverflow).
func quantize8Reference(vec []float32) Quantized8 {
	if len(vec) == 0 {
		return Quantized8{}
	}
	lo, hi := vec[0], vec[0]
	for _, v := range vec {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	scale := (hi - lo) / 255
	if math.IsInf(float64(scale), 1) && !math.IsInf(float64(lo), 0) && !math.IsInf(float64(hi), 0) {
		scale = math.MaxFloat32 / 255
	}
	q := Quantized8{Min: lo, Scale: scale, Codes: make([]byte, len(vec))}
	if scale <= 0 {
		q.Scale = 0
		return q
	}
	inv := 1 / scale
	for i, v := range vec {
		c := math.Round(float64((v - lo) * inv))
		if c < 0 {
			c = 0
		}
		if c > 255 {
			c = 255
		}
		q.Codes[i] = byte(c)
	}
	return q
}

// sameQuantized8 compares header bit patterns (−0 ≠ +0, NaN = the same NaN:
// both reach the wire) and codes.
func sameQuantized8(a, b Quantized8) bool {
	return math.Float32bits(a.Min) == math.Float32bits(b.Min) &&
		math.Float32bits(a.Scale) == math.Float32bits(b.Scale) &&
		bytes.Equal(a.Codes, b.Codes)
}

func checkQuantize8(t *testing.T, what string, vec []float32) {
	t.Helper()
	if got, want := Quantize8(vec), quantize8Reference(vec); !sameQuantized8(got, want) {
		for i := range want.Codes {
			if got.Codes[i] != want.Codes[i] {
				t.Fatalf("%s: element %d (%v, bits %08x) coded %d, reference %d (min %v scale %v)",
					what, i, vec[i], math.Float32bits(vec[i]), got.Codes[i], want.Codes[i], want.Min, want.Scale)
			}
		}
		t.Fatalf("%s: header {%v %v}, reference {%v %v}", what, got.Min, got.Scale, want.Min, want.Scale)
	}
}

// TestQuantize8MatchesRoundReference holds the truncating rounding to the
// math.Round loop on the inputs where the two could part: every exact half
// and its neighbours at several scales, NaN leading and in the middle, ±Inf,
// ranges that overflow or underflow the scale, constants, −0 beside +0, and
// random vectors of random scale, length and bit pattern.
func TestQuantize8MatchesRoundReference(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, step := range []float32{1, 2, 0.5, 3, 1e-3, 1 << 20} {
		for _, lo := range []float32{0, -17, 1e6 * step} {
			// Range [lo, lo+255·step]: x lands on k+0.5 exactly wherever the
			// float32 arithmetic allows, and one ulp to either side of it.
			vec := []float32{lo, lo + 255*step}
			for k := 0; k < 256; k++ {
				h := lo + (float32(k)+0.5)*step
				vec = append(vec, h, math.Nextafter32(h, -inf), math.Nextafter32(h, inf), lo+float32(k)*step)
			}
			checkQuantize8(t, fmt.Sprintf("halves step=%v lo=%v", step, lo), vec)
		}
	}
	checkQuantize8(t, "largest value below a half", []float32{0, 255, 0.5 - 1.0/(1<<25), 0.49999997, 0.5})
	for name, vec := range map[string][]float32{
		"nan first":          {nan, 1, 2, 3},
		"nan middle":         {1, 2, nan, 3, -4},
		"nan last":           {1, 2, 3, nan},
		"all nan":            {nan, nan},
		"+inf":               {1, inf, 2, 3},
		"-inf":               {1, -inf, 2, 3},
		"both inf":           {-inf, 0, 1, inf},
		"inf and nan":        {0, inf, nan, -inf},
		"constant":           {3, 3, 3},
		"constant inf":       {inf, inf},
		"zeros of both sign": {0, float32(math.Copysign(0, -1)), 0},
		"-0 first":           {float32(math.Copysign(0, -1)), 0, 1},
		"range overflows":    {-math.MaxFloat32, math.MaxFloat32, 0, 1e38},
		"denormal range":     {0, math.SmallestNonzeroFloat32, 2 * math.SmallestNonzeroFloat32, 300 * math.SmallestNonzeroFloat32},
		"inverse overflows":  {1, 1 + 1e-7, 1},
		"single":             {7},
	} {
		checkQuantize8(t, name, vec)
	}

	rng := tensor.NewRNG(41)
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(300)
		scale := math.Pow(10, 12*rng.Float64()-9)
		vec := make([]float32, n)
		for i := range vec {
			vec[i] = float32(rng.NormFloat64() * scale)
		}
		switch trial % 8 {
		case 1: // arbitrary bit patterns: NaN payloads, infinities, denormals
			for i := range vec {
				vec[i] = math.Float32frombits(uint32(rng.Intn(1<<16))<<16 | uint32(rng.Intn(1<<16)))
			}
		case 2:
			vec[rng.Intn(n)] = nan
		case 3:
			vec[rng.Intn(n)] = inf
			vec[rng.Intn(n)] = -inf
		case 4: // a coarse grid, so many elements sit on or beside a half
			for i := range vec {
				vec[i] = float32(rng.Intn(511)) * 0.5
			}
			vec[0], vec[n-1] = 0, 255
		}
		checkQuantize8(t, fmt.Sprintf("random trial %d", trial), vec)
	}
}

// TestQuantize8FiniteRangeOverflow is the regression test for a finite chunk
// whose range overflows float32: (hi − lo)/255 was +Inf, so code 0 decoded as
// Min + Inf·0 = NaN and the top element's code came from rounding a NaN. Finite
// input decodes finite now, within the chunk's ends, and the least element
// exactly.
func TestQuantize8FiniteRangeOverflow(t *testing.T) {
	for _, vec := range [][]float32{
		{-3e38, 3e38},
		{-math.MaxFloat32, math.MaxFloat32, 0, 1e38, -1e38},
		{1, -2e38, 2e38, 0},
	} {
		q := Quantize8(vec)
		if math.IsInf(float64(q.Scale), 0) || math.IsNaN(float64(q.Scale)) {
			t.Fatalf("%v: scale %v", vec, q.Scale)
		}
		lo, hi := Range(vec)
		for i, v := range q.Dequantize8() {
			if math.IsInf(float64(v), 0) || math.IsNaN(float64(v)) || v < lo || v > hi {
				t.Fatalf("%v: element %d decodes to %v, outside [%v, %v]", vec, i, v, lo, hi)
			}
		}
		if got := q.Dequantize8()[slices.Index(vec, lo)]; got != lo {
			t.Fatalf("%v: least element decodes to %v", vec, got)
		}
	}
	// Where hi − lo is finite nothing moved: the largest range that still
	// fits codes its ends exactly as before.
	q := Quantize8([]float32{-math.MaxFloat32 / 2, math.MaxFloat32 / 2})
	if q.Scale != math.MaxFloat32/255 || q.Codes[0] != 0 || q.Codes[1] != 255 {
		t.Fatalf("range of exactly math.MaxFloat32: scale %v codes %v", q.Scale, q.Codes)
	}
}

// FuzzQuantize8 feeds Quantize8 arbitrary float32 bit patterns and holds it
// to the math.Round reference, with the codec's SIMD twins on and off: the
// two must code identical bytes. It also walks the input as a delta chunk
// against itself rotated by one element (DiffRange, Quantize8Range, AddInto)
// both ways, which must agree bit for bit, a NaN's payload aside.
func FuzzQuantize8(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0x7f, 0x43, 0, 0, 0, 0x3f}) // 0, 255, 0.5
	f.Add([]byte{0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0x3f})          // NaN, 1
	f.Add([]byte{0, 0, 0x80, 0x7f, 0, 0, 0x80, 0xff, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		vec := make([]float32, len(raw)/4)
		for i := range vec {
			vec[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		want := quantize8Reference(vec)
		for _, on := range []bool{false, true} {
			var got Quantized8
			withCodecTwins(on, func() { got = Quantize8(vec) })
			if !sameQuantized8(got, want) {
				t.Fatalf("Quantize8(%x), twins %v = {%v %v %v}, reference {%v %v %v}",
					raw, on, got.Min, got.Scale, got.Codes, want.Min, want.Scale, want.Codes)
			}
		}
		ref := make([]float32, len(vec))
		for i := range ref {
			ref[i] = vec[(i+1)%len(vec)]
		}
		var off, on codecWalk
		withCodecTwins(false, func() { off = walkChunk(vec, ref) })
		withCodecTwins(true, func() { on = walkChunk(vec, ref) })
		if d := diffWalks(on, off); d != "" {
			t.Fatalf("delta walk of %x with the twins: %s", raw, d)
		}
	})
}

var quantize8Sink Quantized8

// BenchmarkQuantize8 times one 1,024-element wire chunk through Quantize8 and
// through the math.Round reference, in one binary.
func BenchmarkQuantize8(b *testing.B) {
	rng := tensor.NewRNG(5)
	vec := make([]float32, 1024)
	for i := range vec {
		vec[i] = float32(rng.NormFloat64() * 0.05)
	}
	for _, bc := range []struct {
		name string
		fn   func([]float32) Quantized8
	}{{"truncate", Quantize8}, {"round-reference", quantize8Reference}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(4 * len(vec)))
			for i := 0; i < b.N; i++ {
				quantize8Sink = bc.fn(vec)
			}
		})
	}
}
