package tensor

import (
	"math"
	"runtime"
	"sync/atomic"
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
	c := make([]float32, 4)
	Gemm(false, false, 2, 2, 3, 1, a.Data, b.Data, 0, c)
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c[i] != v {
			t.Fatalf("Gemm[%d] = %v, want %v", i, c[i], v)
		}
	}
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
		mul := func(x, y []float32, m, k, n int) []float32 {
			out := make([]float32, m*n)
			Gemm(false, false, m, n, k, 1, x, y, 0, out)
			return out
		}
		left := mul(mul(a.Data, b.Data, m, k, n), c.Data, m, n, p)
		right := mul(a.Data, mul(b.Data, c.Data, k, n, p), m, k, p)
		for i := range left {
			if math.Abs(float64(left[i]-right[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
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
	for _, n := range []int{2, 3, 503, 10007} {
		hits := make([]int32, n)
		ParallelFor(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

// TestParallelForAtomicCoversRangeOnce serialises the body through a
// one-slot channel, so workers stall on each other while claiming indices
// from the atomic counter: every index must still run exactly once.
func TestParallelForAtomicCoversRangeOnce(t *testing.T) {
	n := 503
	hits := make([]int32, n)
	mu := make(chan struct{}, 1)
	mu <- struct{}{}
	ParallelFor(n, func(i int) {
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
	ParallelFor(0, func(int) { t.Fatal("must not be called") })
	called := false
	ParallelFor(1, func(i int) {
		if i != 0 {
			t.Fatalf("bad index %d", i)
		}
		called = true
	})
	if !called {
		t.Fatal("fn not called for n=1")
	}
}

// TestParallelForWorkers runs the device fan-out's checks against the pool:
// every index once at any bound (bounds above the pool's goroutine count
// included), no body for n=0, every worker index below the bound, and no two
// bodies with the same worker index at once.
func TestParallelForWorkers(t *testing.T) {
	const n = 37
	for _, workers := range []int{0, 1, 3, 8, 100} {
		bound := WorkerCount(workers, n)
		var visits [n]atomic.Int32
		busy := make([]atomic.Bool, bound)
		var bad atomic.Int32
		ParallelForWorkers(workers, n, func(w, i int) {
			if w < 0 || w >= bound || !busy[w].CompareAndSwap(false, true) {
				bad.Add(1)
				return
			}
			visits[i].Add(1)
			runtime.Gosched()
			busy[w].Store(false)
		})
		if bad.Load() != 0 {
			t.Fatalf("workers=%d: %d bodies ran outside [0, %d) or beside another body of their worker", workers, bad.Load(), bound)
		}
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
	ParallelForWorkers(4, 0, func(int, int) { t.Fatal("body must not run for n=0") })
}

// TestParallelForWorkersNesting pins the depth guard across the two entry
// points: inside a fan-out with a bound above 1 a nested ParallelFor is a
// serial dispatch, while a bound of 1 runs the loop outside any parallel
// region, so a nested ParallelFor still fans out when Parallelism > 1.
func TestParallelForWorkersNesting(t *testing.T) {
	saved := Parallelism
	defer func() { Parallelism = saved }()
	Parallelism = 2
	const n = 4
	nested := func(int, int) { ParallelFor(2, func(int) {}) }

	serial, fanout := parSerial.Value(), parFanout.Value()
	ParallelForWorkers(2, n, nested)
	if ds, df := parSerial.Value()-serial, parFanout.Value()-fanout; ds != n || df != 1 {
		t.Errorf("bound 2: serial +%v fanout +%v, want +%d and +1", ds, df, n)
	}

	serial, fanout = parSerial.Value(), parFanout.Value()
	ParallelForWorkers(1, n, nested)
	if ds, df := parSerial.Value()-serial, parFanout.Value()-fanout; ds != 1 || df != n {
		t.Errorf("bound 1: serial +%v fanout +%v, want +1 and +%d", ds, df, n)
	}
}
