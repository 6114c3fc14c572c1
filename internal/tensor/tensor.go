// Package tensor provides dense float32 tensors and the parallel numeric
// kernels used by the neural-network stack in internal/nn. It is a minimal,
// stdlib-only substrate: row-major storage, shape bookkeeping, elementwise
// operations, parallel matrix multiplication, and im2col/col2im for
// convolutions.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, row-major float32 tensor. The zero value is an empty
// tensor. Data is exported for kernel code; external packages should prefer
// the accessor methods.
type Tensor struct {
	Data  []float32
	shape []int
	// home is the arena block Data belongs to when the tensor was lent by
	// Borrow; nil for every other tensor, views of a borrowed one included.
	home *Scratch
}

// New allocates a zero-filled tensor with the given shape. A tensor with no
// dimensions holds a single scalar element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Data: make([]float32, n), shape: append([]int(nil), shape...)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	return &Tensor{Data: data, shape: append([]int(nil), shape...)}
}

// FromSliceInto is FromSlice re-using dst's header (a new one when dst is
// nil), for a holder that re-points one view every step without allocating.
// dst must not be a borrowed tensor.
func FromSliceInto(dst *Tensor, data []float32, shape ...int) *Tensor {
	if dst == nil {
		dst = &Tensor{}
	}
	if dst.home != nil {
		panic("tensor: FromSliceInto over a borrowed tensor")
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match a shape of %d elements", len(data), n))
	}
	dst.Data = data
	dst.shape = append(dst.shape[:0], shape...)
	return dst
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match rank %d", idx, len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies src's elements into t. Shapes must have equal element
// counts (shapes themselves may differ, enabling cheap reshaped copies).
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(t.Data), len(src.Data)))
	}
	copy(t.Data, src.Data)
}

// Reshape returns a view of t with a new shape. One dimension may be -1 to be
// inferred. The returned tensor shares t's data.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	n := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dimensions in Reshape")
			}
			infer = i
		} else {
			n *= d
		}
	}
	if infer >= 0 {
		if n == 0 || len(t.Data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		shape[infer] = len(t.Data) / n
		n *= shape[infer]
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.Data), shape, n))
	}
	return &Tensor{Data: t.Data, shape: shape}
}

// Row returns a view of row i of a rank-2 tensor (shape [rows, cols]).
func (t *Tensor) Row(i int) []float32 {
	if len(t.shape) != 2 {
		panic("tensor: Row requires rank-2 tensor")
	}
	c := t.shape[1]
	return t.Data[i*c : (i+1)*c]
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Zero sets all elements to zero.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// String renders small tensors fully and large tensors as a summary.
func (t *Tensor) String() string {
	if len(t.Data) <= 16 {
		parts := make([]string, len(t.Data))
		for i, v := range t.Data {
			parts[i] = fmt.Sprintf("%.4g", v)
		}
		return fmt.Sprintf("Tensor%v[%s]", t.shape, strings.Join(parts, " "))
	}
	return fmt.Sprintf("Tensor%v(%d elements, norm=%.4g)", t.shape, len(t.Data), t.Norm())
}

// Norm returns the Euclidean norm of the tensor's elements.
func (t *Tensor) Norm() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// HasNaN reports whether any element is NaN or infinite. Useful in tests and
// debugging numeric blowups.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.Data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
	}
	return false
}
