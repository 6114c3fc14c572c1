package nn

import (
	"math"
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
	back = DequantizeChunks(QuantizeChunks(mixed, 100))
	for i := 0; i < 100; i++ {
		if back[i] != 0 || back[i+200] != 0 {
			t.Fatal("constant chunks must reconstruct exactly")
		}
	}
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
	chunked := DequantizeChunks(QuantizeChunks(vec, 1024))
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
		back := DequantizeChunks(QuantizeChunks(vec, chunk))
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
