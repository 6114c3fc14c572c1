// Package data provides the synthetic learning tasks and non-IID data
// partitioners used to evaluate Nebula. The paper evaluates on UCI-HAR,
// CIFAR-10/100 and Google Speech Commands; offline and stdlib-only, this
// package substitutes class-conditional synthetic generators that preserve
// the statistical properties the experiments depend on: label-skew and
// feature-skew non-IID partitions, unbalanced device volumes, and time-slot
// distribution shift (see DESIGN.md §1).
package data

import (
	"fmt"

	"repro/internal/tensor"
)

// Dataset is an in-memory labeled sample collection. Samples share one
// shape; X[i] is the flattened sample i.
type Dataset struct {
	SampleShape []int
	NumClasses  int
	X           [][]float32
	Y           []int
}

// NewDataset creates an empty dataset for samples of the given shape.
func NewDataset(sampleShape []int, numClasses int) *Dataset {
	return &Dataset{SampleShape: append([]int(nil), sampleShape...), NumClasses: numClasses}
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// SampleLen returns the flattened element count of one sample.
func (d *Dataset) SampleLen() int {
	n := 1
	for _, s := range d.SampleShape {
		n *= s
	}
	return n
}

// Add appends a sample. The slice is retained, not copied.
func (d *Dataset) Add(x []float32, y int) {
	if len(x) != d.SampleLen() {
		panic(fmt.Sprintf("data: sample length %d does not match shape %v", len(x), d.SampleShape))
	}
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
}

// Append concatenates other into d. Shapes must match.
func (d *Dataset) Append(other *Dataset) {
	if other.SampleLen() != d.SampleLen() {
		panic("data: Append shape mismatch")
	}
	d.X = append(d.X, other.X...)
	d.Y = append(d.Y, other.Y...)
}

// Subset returns a view dataset holding the given indices (sample slices are
// shared).
func (d *Dataset) Subset(idx []int) *Dataset {
	s := NewDataset(d.SampleShape, d.NumClasses)
	for _, i := range idx {
		s.X = append(s.X, d.X[i])
		s.Y = append(s.Y, d.Y[i])
	}
	return s
}

// Shuffle permutes samples in place.
func (d *Dataset) Shuffle(rng *tensor.RNG) {
	rng.Shuffle(len(d.X), func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
}

// Batch assembles the samples at idx into a batch-first tensor plus labels.
// The caller owns both.
func (d *Dataset) Batch(idx []int) (*tensor.Tensor, []int) {
	return d.BatchInto(tensor.New(append([]int{len(idx)}, d.SampleShape...)...), nil, idx)
}

// BatchInto is Batch into a tensor and a label array the caller is done
// reading: x is refit to the batch (tensor.Refit; a nil x borrows one, and the
// caller ends the loan with tensor.Release), y's array reused when it fits.
func (d *Dataset) BatchInto(x *tensor.Tensor, y []int, idx []int) (*tensor.Tensor, []int) {
	x = tensor.Refit(x, append([]int{len(idx)}, d.SampleShape...)...)
	if cap(y) < len(idx) {
		y = make([]int, len(idx))
	}
	y = y[:len(idx)]
	sl := d.SampleLen()
	for bi, i := range idx {
		copy(x.Data[bi*sl:(bi+1)*sl], d.X[i])
		y[bi] = d.Y[i]
	}
	return x, y
}

// Batches cuts the dataset into shuffled mini-batches and calls fn for each.
// The batch is lent — one tensor and one label array, refilled per call and
// taken back when Batches returns: x and y are valid until fn returns.
func (d *Dataset) Batches(rng *tensor.RNG, batchSize int, fn func(x *tensor.Tensor, y []int)) {
	if d.Len() == 0 {
		return
	}
	d.lend(rng.Perm(d.Len()), batchSize, fn)
}

// InOrder is Batches without the shuffle: the samples in dataset order, in
// chunks of size (the last one short when size does not divide the length),
// each lent as Batches lends it.
func (d *Dataset) InOrder(size int, fn func(x *tensor.Tensor, y []int)) {
	d.lend(d.order(), size, fn)
}

// lend calls fn on the samples at idx, size at a time, through one borrowed
// tensor and label array.
func (d *Dataset) lend(idx []int, size int, fn func(x *tensor.Tensor, y []int)) {
	var x *tensor.Tensor
	var y []int
	defer func() { tensor.Release(x) }()
	for start := 0; start < len(idx); start += size {
		x, y = d.BatchInto(x, y, idx[start:min(start+size, len(idx))])
		fn(x, y)
	}
}

// All returns the whole dataset as one batch the caller owns.
func (d *Dataset) All() (*tensor.Tensor, []int) { return d.Batch(d.order()) }

// order returns the indices 0..Len()-1.
func (d *Dataset) order() []int {
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// ClassHistogram returns per-class sample counts.
func (d *Dataset) ClassHistogram() []int {
	h := make([]int, d.NumClasses)
	for _, y := range d.Y {
		h[y]++
	}
	return h
}

// Classes returns the sorted distinct labels present.
func (d *Dataset) Classes() []int {
	var out []int
	for c, n := range d.ClassHistogram() {
		if n > 0 {
			out = append(out, c)
		}
	}
	return out
}
