package tensor

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.Rank() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape %v", x.Shape())
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New tensor not zero-filled")
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if got := x.At(2, 1); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if x.Data[2*4+1] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeInference(t *testing.T) {
	x := New(4, 6)
	y := x.Reshape(2, -1)
	if y.Dim(0) != 2 || y.Dim(1) != 12 {
		t.Fatalf("reshape got %v", y.Shape())
	}
	y.Data[0] = 5
	if x.Data[0] != 5 {
		t.Fatal("Reshape must share data")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 3)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 1 {
		t.Fatal("Clone shares data")
	}
}

func TestRowView(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	r := x.Row(1)
	if len(r) != 3 || r[0] != 4 || r[2] != 6 {
		t.Fatalf("Row = %v", r)
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	a.Add(b)
	if a.Data[0] != 5 || a.Data[2] != 9 {
		t.Fatalf("Add: %v", a.Data)
	}
	a.Sub(b)
	if a.Data[1] != 2 {
		t.Fatalf("Sub: %v", a.Data)
	}
	a.Mul(b)
	if a.Data[2] != 18 {
		t.Fatalf("Mul: %v", a.Data)
	}
	a.Scale(0.5)
	if a.Data[0] != 2 {
		t.Fatalf("Scale: %v", a.Data)
	}
	a.AddScaled(2, b)
	if a.Data[0] != 10 {
		t.Fatalf("AddScaled: %v", a.Data)
	}
}

func TestSumMeanMaxArgMax(t *testing.T) {
	x := FromSlice([]float32{1, -2, 7, 3}, 4)
	if x.Sum() != 9 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Mean() != 2.25 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if x.Max() != 7 {
		t.Fatalf("Max = %v", x.Max())
	}
}

func TestArgMaxRow(t *testing.T) {
	x := FromSlice([]float32{0, 9, 1, 5, 2, 3}, 2, 3)
	if x.ArgMaxRow(0) != 1 || x.ArgMaxRow(1) != 0 {
		t.Fatal("ArgMaxRow wrong")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	src := []float32{1, 2, 3, 1000} // large value stresses stabilization
	dst := make([]float32, 4)
	Softmax(dst, src)
	var sum float64
	for _, v := range dst {
		if v < 0 || math.IsNaN(float64(v)) {
			t.Fatalf("softmax produced invalid value %v", v)
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("softmax sum = %v", sum)
	}
	if dst[3] < 0.99 {
		t.Fatalf("dominant logit should dominate, got %v", dst[3])
	}
}

func TestSoftmaxSumsToOneQuick(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		// Clamp to a sane range; arbitrary float32s include NaN/Inf which are
		// out of contract for logits.
		src := make([]float32, len(vals))
		for i, v := range vals {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				f = 0
			}
			src[i] = float32(math.Mod(f, 50))
		}
		dst := make([]float32, len(src))
		Softmax(dst, src)
		var sum float64
		for _, v := range dst {
			if v < 0 {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTopK(t *testing.T) {
	x := []float32{0.1, 0.9, 0.5, 0.7}
	idx := TopK(x, 2)
	if len(idx) != 2 || idx[0] != 1 || idx[1] != 3 {
		t.Fatalf("TopK = %v", idx)
	}
	if got := TopK(x, 10); len(got) != 4 {
		t.Fatalf("TopK clamp failed: %v", got)
	}
	if got := TopK(x, 0); got != nil {
		t.Fatalf("TopK(0) = %v", got)
	}

	// The order is total: ties go to the lowest index, and entries that
	// compare greater than nothing (NaN, −Inf) rank last, lowest index first.
	// Diverged selector scores used to index out of range here.
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, tc := range []struct {
		x    []float32
		k    int
		want []int
	}{
		{[]float32{0.5, nan, nan}, 2, []int{0, 1}},
		{[]float32{nan, nan, nan}, 3, []int{0, 1, 2}},
		{[]float32{nan, 1, 2}, 3, []int{2, 1, 0}},
		{[]float32{nan, -inf, 0.5}, 3, []int{2, 0, 1}},
		{[]float32{-inf, -inf}, 1, []int{0}},
		{[]float32{1, inf, -inf, inf}, 4, []int{1, 3, 0, 2}},
		{[]float32{3, 3, 3, 3}, 2, []int{0, 1}},
		{[]float32{0.1, 0.9, 0.5, 0.7}, 4, []int{1, 3, 2, 0}},
		{[]float32{0.1, 0.9, 0.5, 0.7}, 9, []int{1, 3, 2, 0}},
	} {
		if got := TopK(tc.x, tc.k); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("TopK(%v, %d) = %v, want %v", tc.x, tc.k, got, tc.want)
		}
		dst := []int{-7, -7, -7, -7, -7}
		got := TopKInto(dst, tc.x, tc.k)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("TopKInto(%v, %d) = %v, want %v", tc.x, tc.k, got, tc.want)
		}
		if &got[0] != &dst[0] || dst[len(tc.want)] != -7 {
			t.Errorf("TopKInto(%v, %d) did not fill exactly the prefix of dst: %v", tc.x, tc.k, dst)
		}
	}
	if got := TopKInto(make([]int, 2), x, 0); len(got) != 0 {
		t.Fatalf("TopKInto(0) = %v", got)
	}
	dst := make([]int, 3)
	if allocs := testing.AllocsPerRun(10, func() { TopKInto(dst, x, 3) }); allocs != 0 && !raceEnabled {
		t.Errorf("TopKInto: %v allocs/op, want 0", allocs)
	}
}

func TestDotAndAxpy(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatalf("Dot = %v", Dot(x, y))
	}
	Axpy(2, x, y)
	if y[0] != 6 || y[2] != 12 {
		t.Fatalf("Axpy = %v", y)
	}
}

func TestHasNaN(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	if x.HasNaN() {
		t.Fatal("false positive")
	}
	x.Data[1] = float32(math.NaN())
	if !x.HasNaN() {
		t.Fatal("missed NaN")
	}
	x.Data[1] = float32(math.Inf(1))
	if !x.HasNaN() {
		t.Fatal("missed Inf")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestSplitIntoMatchesSplit: a generator re-seeded by SplitInto yields, for
// 1,000 draws of every RNG method, exactly what the generator a Split in its
// place returns — after the generator has been drawn from, and round after
// round, as the round engine re-seeds its per-device streams.
func TestSplitIntoMatchesSplit(t *testing.T) {
	bits := func(fs ...float32) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = uint64(math.Float32bits(f))
		}
		return out
	}
	ints := func(xs ...int) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = uint64(x)
		}
		return out
	}
	methods := []struct {
		name string
		draw func(g *RNG) []uint64
	}{
		{"Float64", func(g *RNG) []uint64 { return []uint64{math.Float64bits(g.Float64())} }},
		{"Intn", func(g *RNG) []uint64 { return ints(g.Intn(1000)) }},
		{"Int63", func(g *RNG) []uint64 { return ints(int(g.Int63())) }},
		{"NormFloat64", func(g *RNG) []uint64 { return []uint64{math.Float64bits(g.NormFloat64())} }},
		{"Perm", func(g *RNG) []uint64 { return ints(g.Perm(7)...) }},
		{"Shuffle", func(g *RNG) []uint64 {
			xs := []int{0, 1, 2, 3, 4, 5}
			g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			return ints(xs...)
		}},
		{"FillNormal", func(g *RNG) []uint64 { x := New(3); g.FillNormal(x, 0.5, 2); return bits(x.Data...) }},
		{"FillHe", func(g *RNG) []uint64 { x := New(3); g.FillHe(x, 9); return bits(x.Data...) }},
		{"Sample", func(g *RNG) []uint64 { return ints(g.Sample(9, 4)...) }},
		{"Categorical", func(g *RNG) []uint64 { return ints(g.Categorical([]float64{1, 0, 2, 5})) }},
		{"Split", func(g *RNG) []uint64 { return ints(int(g.Split().Int63())) }},
	}
	a, b := NewRNG(5), NewRNG(5)
	kept := NewRNG(99)
	kept.NormFloat64() // a generator in use, not a fresh one
	for _, m := range methods {
		fresh, reused := a.Split(), b.SplitInto(kept)
		if reused != kept {
			t.Fatal("SplitInto returned another generator than the one it was given")
		}
		for i := 0; i < 1000; i++ {
			if want, got := m.draw(fresh), m.draw(reused); !slices.Equal(got, want) {
				t.Fatalf("%s, draw %d: a re-seeded generator gives %v, a split one %v", m.name, i, got, want)
			}
		}
	}
	if a.Int63() != b.Int63() {
		t.Fatal("SplitInto advanced its parent by another amount than Split")
	}
}

func TestRNGSample(t *testing.T) {
	g := NewRNG(1)
	s := g.Sample(10, 4)
	if len(s) != 4 {
		t.Fatalf("Sample len = %d", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Sample invalid: %v", s)
		}
		seen[v] = true
	}
	if got := g.Sample(3, 99); len(got) != 3 {
		t.Fatalf("Sample clamp failed: %v", got)
	}
}

func TestRNGCategorical(t *testing.T) {
	g := NewRNG(7)
	counts := [3]int{}
	w := []float64{0, 1, 3}
	for i := 0; i < 4000; i++ {
		counts[g.Categorical(w)]++
	}
	if counts[0] != 0 {
		t.Fatal("zero-weight category sampled")
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.3 || ratio > 3.8 {
		t.Fatalf("categorical ratio %v, want ≈3", ratio)
	}
	if g.Categorical([]float64{0, 0}) != 1 {
		t.Fatal("all-zero weights should return last index")
	}
}

func TestFillHeStatistics(t *testing.T) {
	g := NewRNG(3)
	w := New(200, 200)
	g.FillHe(w, 200)
	mean := w.Mean()
	if math.Abs(mean) > 0.01 {
		t.Fatalf("He mean = %v", mean)
	}
	var variance float64
	for _, v := range w.Data {
		variance += float64(v) * float64(v)
	}
	variance /= float64(w.Len())
	want := 2.0 / 200.0
	if variance < want*0.8 || variance > want*1.2 {
		t.Fatalf("He variance = %v, want ≈ %v", variance, want)
	}
}
