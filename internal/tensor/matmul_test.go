package tensor

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

// naiveGemm is the reference implementation tests compare against.
func naiveGemm(transA, transB bool, m, n, k int, a, b []float32) []float32 {
	c := make([]float32, m*n)
	at := func(i, p int) float32 {
		if transA {
			return a[p*m+i]
		}
		return a[i*k+p]
	}
	bt := func(p, j int) float32 {
		if transB {
			return b[j*k+p]
		}
		return b[p*n+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += at(i, p) * bt(p, j)
			}
			c[i*n+j] = s
		}
	}
	return c
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestGemmAllTransposeVariants(t *testing.T) {
	g := NewRNG(11)
	m, n, k := 7, 5, 9
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			a := New(m * k)
			b := New(k * n)
			g.FillNormal(a, 0, 1)
			g.FillNormal(b, 0, 1)
			c := make([]float32, m*n)
			Gemm(ta, tb, m, n, k, 1, a.Data, b.Data, 0, c)
			want := naiveGemm(ta, tb, m, n, k, a.Data, b.Data)
			for i := range want {
				if math.Abs(float64(c[i]-want[i])) > 1e-4 {
					t.Fatalf("Gemm(ta=%v,tb=%v)[%d] = %v, want %v", ta, tb, i, c[i], want[i])
				}
			}
		}
	}
}

func TestGemmAlphaBeta(t *testing.T) {
	g := NewRNG(5)
	m, n, k := 4, 4, 4
	a, b := New(m*k), New(k*n)
	g.FillNormal(a, 0, 1)
	g.FillNormal(b, 0, 1)
	base := naiveGemm(false, false, m, n, k, a.Data, b.Data)
	c := make([]float32, m*n)
	for i := range c {
		c[i] = 1
	}
	Gemm(false, false, m, n, k, 2, a.Data, b.Data, 3, c)
	for i := range c {
		want := 2*base[i] + 3
		if math.Abs(float64(c[i]-want)) > 1e-4 {
			t.Fatalf("alpha/beta gemm[%d] = %v, want %v", i, c[i], want)
		}
	}
}

func TestGemmParallelMatchesSerial(t *testing.T) {
	g := NewRNG(13)
	m, n, k := 64, 48, 80 // large enough to trigger the parallel path
	a, b := New(m*k), New(k*n)
	g.FillNormal(a, 0, 1)
	g.FillNormal(b, 0, 1)
	cPar := make([]float32, m*n)
	Gemm(false, false, m, n, k, 1, a.Data, b.Data, 0, cPar)

	old := Parallelism
	Parallelism = 1
	cSer := make([]float32, m*n)
	Gemm(false, false, m, n, k, 1, a.Data, b.Data, 0, cSer)
	Parallelism = old

	for i := range cPar {
		if cPar[i] != cSer[i] {
			t.Fatalf("parallel/serial mismatch at %d: %v vs %v", i, cPar[i], cSer[i])
		}
	}
}

func TestMatMulAssociativityQuick(t *testing.T) {
	// (A·B)·C == A·(B·C) within float tolerance, for small random matrices.
	g := NewRNG(17)
	f := func(seed int64) bool {
		r := NewRNG(seed%1000 + 1)
		m, k, n, p := 3+r.Intn(4), 3+r.Intn(4), 3+r.Intn(4), 3+r.Intn(4)
		a, b, c := New(m, k), New(k, n), New(n, p)
		g.FillNormal(a, 0, 1)
		g.FillNormal(b, 0, 1)
		g.FillNormal(c, 0, 1)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		for i := range left.Data {
			if math.Abs(float64(left.Data[i]-right.Data[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := make([]float32, 2)
	MatVec(a, []float32{1, 1}, y)
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MatVec = %v", y)
	}
}

func TestOuterAccum(t *testing.T) {
	c := make([]float32, 6)
	OuterAccum(c, []float32{1, 2}, []float32{3, 4, 5})
	want := []float32{3, 4, 5, 6, 8, 10}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("OuterAccum = %v", c)
		}
	}
	OuterAccum(c, []float32{1, 2}, []float32{3, 4, 5})
	if c[0] != 6 {
		t.Fatal("OuterAccum must accumulate")
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: im2col is the identity layout.
	src := []float32{1, 2, 3, 4}
	dst := make([]float32, 4)
	oh, ow := Im2Col(src, 1, 2, 2, 1, 1, 1, 0, dst)
	if oh != 2 || ow != 2 {
		t.Fatalf("out size %dx%d", oh, ow)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("identity im2col = %v", dst)
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	src := []float32{5}
	// 3x3 kernel over a 1x1 input with pad 1: center tap sees the pixel,
	// everything else sees padding.
	dst := make([]float32, 9)
	oh, ow := Im2Col(src, 1, 1, 1, 3, 3, 1, 1, dst)
	if oh != 1 || ow != 1 {
		t.Fatalf("out %dx%d", oh, ow)
	}
	for i, v := range dst {
		if i == 4 {
			if v != 5 {
				t.Fatalf("center tap = %v", v)
			}
		} else if v != 0 {
			t.Fatalf("pad tap %d = %v", i, v)
		}
	}
}

func TestCol2ImAdjointProperty(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> — col2im is the exact adjoint of
	// im2col, which is what backprop correctness requires.
	g := NewRNG(29)
	ch, h, w, kh, kw, stride, pad := 2, 5, 6, 3, 3, 2, 1
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	x := New(ch * h * w)
	g.FillNormal(x, 0, 1)
	cols := make([]float32, ch*kh*kw*outH*outW)
	Im2Col(x.Data, ch, h, w, kh, kw, stride, pad, cols)
	y := New(len(cols))
	g.FillNormal(y, 0, 1)
	lhs := Dot(cols, y.Data)
	back := make([]float32, ch*h*w)
	Col2Im(y.Data, ch, h, w, kh, kw, stride, pad, back)
	rhs := Dot(x.Data, back)
	if math.Abs(lhs-rhs) > 1e-3*(1+math.Abs(lhs)) {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestParallelForCoversRangeOnce(t *testing.T) {
	n := 10007
	hits := make([]int32, n)
	ParallelFor(n, func(s, e int) {
		for i := s; i < e; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestParallelForAtomicCoversRangeOnce(t *testing.T) {
	n := 503
	hits := make([]int32, n)
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	ParallelForAtomic(n, func(i int) {
		<-mu
		hits[i]++
		mu <- struct{}{}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestParallelForEmptyAndSmall(t *testing.T) {
	ParallelFor(0, func(s, e int) { t.Fatal("must not be called") })
	called := false
	ParallelFor(1, func(s, e int) {
		if s != 0 || e != 1 {
			t.Fatalf("bad range %d..%d", s, e)
		}
		called = true
	})
	if !called {
		t.Fatal("fn not called for n=1")
	}
}

func TestParallelForChunksOrderedCoverage(t *testing.T) {
	n := 1003
	hits := make([]int32, n)
	chunks := map[int][2]int{}
	var mu sync.Mutex
	used := ParallelForChunks(n, func(chunk, s, e int) {
		for i := s; i < e; i++ {
			hits[i]++
		}
		mu.Lock()
		chunks[chunk] = [2]int{s, e}
		mu.Unlock()
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
	if used != len(chunks) {
		t.Fatalf("used=%d but %d chunks reported", used, len(chunks))
	}
	// Chunks must be contiguous and ordered by index.
	prevEnd := 0
	for c := 0; c < used; c++ {
		r, ok := chunks[c]
		if !ok {
			t.Fatalf("chunk %d missing", c)
		}
		if r[0] != prevEnd {
			t.Fatalf("chunk %d starts at %d, want %d", c, r[0], prevEnd)
		}
		prevEnd = r[1]
	}
	if prevEnd != n {
		t.Fatalf("chunks cover up to %d, want %d", prevEnd, n)
	}
	if ParallelForChunks(0, func(int, int, int) { t.Fatal("must not run") }) != 0 {
		t.Fatal("n=0 should use 0 chunks")
	}
}
