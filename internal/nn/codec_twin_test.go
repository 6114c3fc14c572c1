package nn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// codecWalk is what the delta codec computes for one chunk of vals against
// ref (nil: a full payload): the difference with its range (DiffRange), or
// the range of vals (Range), the codes (Quantize8Range), and the
// reconstruction (AddInto; DequantizeInto for a full payload). inPlace is
// AddInto with dst the reference's own array.
type codecWalk struct {
	diff    []float32
	lo, hi  float32
	q       Quantized8
	recon   []float32
	inPlace []float32
}

// walkChunk runs the codec's loops over vals and ref, every output in a
// fresh array. len(vals) == 0 runs only the loops that take an empty chunk.
func walkChunk(vals, ref []float32) codecWalk {
	var w codecWalk
	enc := vals
	switch {
	case ref != nil && len(vals) > 0:
		w.diff = make([]float32, len(vals))
		w.lo, w.hi = DiffRange(w.diff, vals, ref)
		enc = w.diff
	case len(vals) > 0:
		w.lo, w.hi = Range(vals)
	}
	w.q = Quantize8Range(make([]byte, len(enc)), enc, w.lo, w.hi)
	w.recon = make([]float32, len(vals))
	if ref == nil {
		w.q.DequantizeInto(w.recon)
		return w
	}
	w.q.AddInto(w.recon, ref)
	w.inPlace = append([]float32(nil), ref...)
	w.q.AddInto(w.inPlace, w.inPlace)
	return w
}

// withCodecTwins runs fn with the codec's twins on or off and restores the
// setting.
func withCodecTwins(on bool, fn func()) {
	was := CodecTwinsForTests(on)
	defer CodecTwinsForTests(was)
	fn()
}

// sameFloat compares bit patterns, a NaN's payload aside (docs/PERF.md
// invariant 8).
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b
}

// diffWalks names the first place two walks of one chunk differ, or "".
func diffWalks(got, want codecWalk) string {
	floats := func(what string, g, w []float32) string {
		if len(g) != len(w) {
			return fmt.Sprintf("%s: %d elements, oracle %d", what, len(g), len(w))
		}
		for i := range w {
			if !sameFloat(g[i], w[i]) {
				return fmt.Sprintf("%s[%d] = %v (%#08x), oracle %v (%#08x)", what, i,
					g[i], math.Float32bits(g[i]), w[i], math.Float32bits(w[i]))
			}
		}
		return ""
	}
	for _, d := range []string{
		floats("diff", got.diff, want.diff),
		floats("lo, hi", []float32{got.lo, got.hi}, []float32{want.lo, want.hi}),
		floats("Min, Scale", []float32{got.q.Min, got.q.Scale}, []float32{want.q.Min, want.q.Scale}),
		floats("recon", got.recon, want.recon),
		floats("in-place recon", got.inPlace, want.inPlace),
	} {
		if d != "" {
			return d
		}
	}
	if !bytes.Equal(got.q.Codes, want.q.Codes) {
		return fmt.Sprintf("codes %v, oracle %v", got.q.Codes, want.q.Codes)
	}
	return ""
}

// checkTwins holds the twins' walk of (vals, ref) to the Go loops', and the
// full payload's walk of vals as well.
func checkTwins(t *testing.T, what string, vals, ref []float32) {
	t.Helper()
	for _, r := range [][]float32{ref, nil} {
		var want, got codecWalk
		withCodecTwins(false, func() { want = walkChunk(vals, r) })
		withCodecTwins(true, func() { got = walkChunk(vals, r) })
		if d := diffWalks(got, want); d != "" {
			t.Fatalf("%s (n=%d, delta %v): %s", what, len(vals), r != nil, d)
		}
	}
}

var (
	negZero   = float32(math.Copysign(0, -1))
	posInf    = float32(math.Inf(1))
	negInf    = float32(math.Inf(-1))
	quietNaN  = float32(math.NaN())
	denormals = []float32{math.Float32frombits(1), math.Float32frombits(0x807fffff), math.Float32frombits(0x00400000)}
)

// TestCodecTwinsMatchGoLoop holds the AVX2 twins of DiffRange,
// Quantize8Range and AddInto to their Go loops bit for bit (a NaN's payload
// aside): the difference, its range, the header, the codes and the
// reconstruction, over a delta chunk and a full one. Every length 0–70, so
// that the twins' blocks and the Go tails meet at each remainder, and at
// lengths on both sides of a block: a NaN first and later (in a block and in
// the tail), a ±0 first with the ends at zero, ±Inf, denormals, a range that
// needs maxScale and a constant chunk.
func TestCodecTwinsMatchGoLoop(t *testing.T) {
	if !tensor.HasAVX2() {
		t.Skip("no AVX2 on this host: the Go loops are the only path")
	}
	rng := rand.New(rand.NewSource(52))
	specials := append([]float32{0, negZero, posInf, negInf, quietNaN, math.MaxFloat32, -math.MaxFloat32}, denormals...)
	random := func(n int, spread float64, special int) (vals, ref []float32) {
		vals, ref = make([]float32, n), make([]float32, n)
		for i := range vals {
			ref[i] = float32(rng.NormFloat64())
			vals[i] = ref[i] + float32(rng.NormFloat64()*spread)
			if special > 0 && rng.Intn(special) == 0 {
				vals[i] = specials[rng.Intn(len(specials))]
			}
		}
		return vals, ref
	}
	for n := 0; n <= 70; n++ {
		for rep := 0; rep < 20; rep++ {
			vals, ref := random(n, 0.01, 0)
			checkTwins(t, "random", vals, ref)
			vals, ref = random(n, 1e3, 12)
			checkTwins(t, "random with specials", vals, ref)
		}
	}

	// The chunks below are differences against a zero reference (x − +0 is
	// x, −0 included), so each special stands where the twins see it.
	zeros := func(n int) []float32 { return make([]float32, n) }
	ramp := func(n int, from, step float32) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = from + step*float32(i)
		}
		return v
	}
	with := func(v []float32, at int, x float32) []float32 {
		v = append([]float32(nil), v...)
		v[at] = x
		return v
	}
	for _, n := range []int{1, 2, 7, 8, 9, 15, 16, 17, 31, 64, 67, 70} {
		up := ramp(n, 0.25, 0.5)
		cases := map[string][]float32{
			"NaN first":         with(up, 0, quietNaN),
			"NaN last":          with(up, n-1, quietNaN),
			"NaN mid-block":     with(up, n/2, quietNaN),
			"-0 first, ends 0":  with(ramp(n, 0, 1), 0, negZero),
			"+0 first, -0 next": with(with(ramp(n, 1, 1), 0, 0), n-1, negZero),
			"-0 first, hi 0":    with(ramp(n, -float32(n), 1), 0, negZero),
			"-0 last, lo 0":     with(ramp(n, 1, 1), n-1, negZero),
			"+Inf":              with(up, n/3, posInf),
			"-Inf":              with(up, n-1-n/3, negInf),
			"both infinities":   with(with(up, 0, negInf), n-1, posInf),
			"denormals":         append(append([]float32(nil), denormals...), up...)[:n],
			"maxScale":          with(with(ramp(n, -1e38, 1e36), 0, -3e38), n-1, 3e38),
			"constant":          ramp(n, 0.75, 0),
			"constant -0":       ramp(n, negZero, 0),
		}
		for name, vals := range cases {
			checkTwins(t, name, vals, zeros(n))
			_, ref := random(n, 0, 0)
			checkTwins(t, name+", random ref", vals, ref)
		}
	}
}

var codecSink float32

// BenchmarkCodecLoops times the codec's three chunk loops over one
// 1,024-element wire chunk of small deltas, through the Go loops and through
// the twins (where the host has AVX2), in one binary.
func BenchmarkCodecLoops(b *testing.B) {
	rng := tensor.NewRNG(52)
	const n = 1024
	vals, ref, diff, dst := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range vals {
		ref[i] = float32(rng.NormFloat64())
		vals[i] = ref[i] + float32(rng.NormFloat64()*0.01)
	}
	lo, hi := DiffRange(diff, vals, ref)
	q := Quantize8Range(make([]byte, n), diff, lo, hi)
	loops := []struct {
		name string
		fn   func()
	}{
		{"diffRange", func() { lo, _ := DiffRange(diff, vals, ref); codecSink = lo }},
		{"quantize8Range", func() { Quantize8Range(q.Codes, diff, lo, hi) }},
		{"addInto", func() { q.AddInto(dst, ref) }},
	}
	for _, l := range loops {
		for _, on := range []bool{false, true} {
			path := "go"
			if on {
				if !tensor.HasAVX2() {
					continue
				}
				path = "avx2"
			}
			b.Run(l.name+"/"+path, func(b *testing.B) {
				was := CodecTwinsForTests(on)
				defer CodecTwinsForTests(was)
				b.SetBytes(4 * n)
				for i := 0; i < b.N; i++ {
					l.fn()
				}
			})
		}
	}
}
