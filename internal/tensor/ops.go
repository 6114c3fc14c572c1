package tensor

import (
	"fmt"
	"math"
)

// Add computes t += o elementwise.
func (t *Tensor) Add(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("tensor: Add size mismatch %v vs %v", t.shape, o.shape))
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// Sub computes t -= o elementwise.
func (t *Tensor) Sub(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("tensor: Sub size mismatch %v vs %v", t.shape, o.shape))
	}
	for i, v := range o.Data {
		t.Data[i] -= v
	}
}

// Mul computes t *= o elementwise (Hadamard product).
func (t *Tensor) Mul(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("tensor: Mul size mismatch %v vs %v", t.shape, o.shape))
	}
	for i, v := range o.Data {
		t.Data[i] *= v
	}
}

// Scale computes t *= a elementwise.
func (t *Tensor) Scale(a float32) {
	for i := range t.Data {
		t.Data[i] *= a
	}
}

// AddScaled computes t += a*o elementwise: Axpy over the two arrays.
func (t *Tensor) AddScaled(a float32, o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("tensor: AddScaled size mismatch %v vs %v", t.shape, o.shape))
	}
	Axpy(a, o.Data, t.Data)
}

// Axpy computes y += a*x on raw slices, each y[i] + float32(a*x[i]): the
// hot loop of module combines and scatters, of Conv2D's half merge and of
// aggregation (AddScaled). Whole blocks of eight run through a strict AVX
// twin where one is selected (axpyBlocks), bit for bit this loop but for a
// NaN's payload (docs/PERF.md invariant 8).
func Axpy(a float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	for i := axpyBlocks(a, x, y); i < len(x); i++ {
		y[i] += float32(a * x[i])
	}
}

// Dot returns the inner product of x and y.
func Dot(x, y []float32) float64 {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += float64(float64(v) * float64(y[i]))
	}
	return s
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Max returns the maximum element value (−Inf for empty tensors).
func (t *Tensor) Max() float32 {
	m := float32(math.Inf(-1))
	for _, v := range t.Data {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMaxRow returns, for a rank-2 tensor, the argmax of row i.
func (t *Tensor) ArgMaxRow(i int) int {
	row := t.Row(i)
	best, bm := 0, float32(math.Inf(-1))
	for j, v := range row {
		if v > bm {
			bm, best = v, j
		}
	}
	return best
}

// Softmax writes the softmax of src into dst (both length n), numerically
// stabilized by max subtraction.
func Softmax(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Softmax length mismatch")
	}
	if len(src) == 0 {
		return
	}
	m := src[0]
	for _, v := range src[1:] {
		if v > m {
			m = v
		}
	}
	var sum float64
	for i, v := range src {
		e := math.Exp(float64(v - m))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1.0 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}

// TopK returns the indices of the k largest values in x, in descending value
// order. k is clamped to len(x). See TopKInto for the order among ties and
// values that do not compare.
func TopK(x []float32, k int) []int {
	if k > len(x) {
		k = len(x)
	}
	if k <= 0 {
		return nil
	}
	return TopKInto(make([]int, k), x, k)
}

// TopKInto is TopK into dst, which must hold min(k, len(x)) indices; it
// allocates nothing and returns the filled prefix of dst. The order is total:
// among equal values the lowest index comes first, and an entry that compares
// greater than nothing (NaN, −Inf) ranks after every entry that does, again
// lowest index first — so diverged scores still select k distinct indices.
// O(n·k²), fine for the module counts used here.
func TopKInto(dst []int, x []float32, k int) []int {
	if k > len(x) {
		k = len(x)
	}
	if k <= 0 {
		return dst[:0]
	}
	dst = dst[:k]
	for c := range dst {
		best, first := -1, -1 // largest untaken entry; lowest untaken index
		bm := float32(math.Inf(-1))
	scan:
		for i, v := range x {
			for _, t := range dst[:c] {
				if t == i {
					continue scan
				}
			}
			if first < 0 {
				first = i
			}
			if v > bm {
				bm, best = v, i
			}
		}
		if best < 0 {
			best = first
		}
		dst[c] = best
	}
	return dst
}
