package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Stater is implemented by layers carrying non-trained state that must travel
// with the parameters (BatchNorm running statistics).
type Stater interface {
	States() []*tensor.Tensor
}

// States returns the running-state tensors of bn.
func (bn *BatchNorm) States() []*tensor.Tensor {
	return []*tensor.Tensor{bn.RunMean, bn.RunVar}
}

// States walks a Sequential collecting layer states.
func (s *Sequential) States() []*tensor.Tensor {
	var st []*tensor.Tensor
	for _, l := range s.Layers {
		if sl, ok := l.(Stater); ok {
			st = append(st, sl.States()...)
		}
	}
	return st
}

// States walks a Residual collecting body and projection states.
func (r *Residual) States() []*tensor.Tensor {
	var st []*tensor.Tensor
	if sl, ok := r.Body.(Stater); ok {
		st = append(st, sl.States()...)
	}
	if r.Proj != nil {
		if sl, ok := r.Proj.(Stater); ok {
			st = append(st, sl.States()...)
		}
	}
	return st
}

// LayerStates returns the states of any layer, or nil.
func LayerStates(l Layer) []*tensor.Tensor {
	if sl, ok := l.(Stater); ok {
		return sl.States()
	}
	return nil
}

// VectorLen returns the total scalar count of params plus states.
func VectorLen(params []*Param, states []*tensor.Tensor) int {
	n := ParamCount(params)
	for _, s := range states {
		n += s.Len()
	}
	return n
}

// FlattenVector copies all parameters then all states into one flat vector.
// The layout is deterministic given a fixed params/states ordering, which all
// transfer paths in this repo preserve.
func FlattenVector(params []*Param, states []*tensor.Tensor) []float32 {
	return AppendVector(make([]float32, 0, VectorLen(params, states)), params, states)
}

// AppendVector is FlattenVector appending to dst, for a caller that brings
// the array.
func AppendVector(dst []float32, params []*Param, states []*tensor.Tensor) []float32 {
	for _, p := range params {
		dst = append(dst, p.W.Data...)
	}
	for _, s := range states {
		dst = append(dst, s.Data...)
	}
	return dst
}

// LoadVector writes a flat vector produced by FlattenVector back into params
// and states.
func LoadVector(vec []float32, params []*Param, states []*tensor.Tensor) {
	if len(vec) != VectorLen(params, states) {
		panic(fmt.Sprintf("nn: LoadVector length %d, want %d", len(vec), VectorLen(params, states)))
	}
	off := 0
	for _, p := range params {
		copy(p.W.Data, vec[off:off+p.W.Len()])
		off += p.W.Len()
	}
	for _, s := range states {
		copy(s.Data, vec[off:off+s.Len()])
		off += s.Len()
	}
}

// BytesOf returns the wire size in bytes of a parameter set (4 bytes per
// float32 scalar). This is the quantity the communication-cost experiments
// account.
func BytesOf(params []*Param, states []*tensor.Tensor) int64 {
	return int64(VectorLen(params, states)) * 4
}

// CopyOverlap copies the overlapping leading hyper-rectangle of src into dst:
// for each dimension, indices [0, min(dstDim, srcDim)). This implements
// HeteroFL-style nested sub-model extraction (dst smaller than src) and
// write-back (dst larger than src). Ranks must match; rank-0..4 supported.
func CopyOverlap(dst, src *tensor.Tensor) {
	visitOverlap(dst, src, func(dstIdx, srcIdx int) {
		dst.Data[dstIdx] = src.Data[srcIdx]
	})
}

// AccumOverlap adds weight·src into sum over the overlapping leading
// hyper-rectangle and adds weight into cnt at the same positions. Dividing
// sum by cnt elementwise afterwards yields the HeteroFL per-parameter
// average over the clients that cover each coordinate.
func AccumOverlap(sum, cnt, src *tensor.Tensor, weight float32) {
	if !sum.SameShape(cnt) {
		panic("nn: AccumOverlap sum/cnt shape mismatch")
	}
	visitOverlap(sum, src, func(dstIdx, srcIdx int) {
		sum.Data[dstIdx] += float32(weight * src.Data[srcIdx])
		cnt.Data[dstIdx] += weight
	})
}

// visitOverlap enumerates aligned (dstIndex, srcIndex) pairs over the common
// leading orthant of two same-rank tensors.
func visitOverlap(dst, src *tensor.Tensor, fn func(dstIdx, srcIdx int)) {
	ds, ss := dst.Shape(), src.Shape()
	if len(ds) != len(ss) {
		panic(fmt.Sprintf("nn: overlap rank mismatch %v vs %v", ds, ss))
	}
	rank := len(ds)
	if rank == 0 {
		fn(0, 0)
		return
	}
	lim := make([]int, rank)
	for i := range lim {
		lim[i] = min(ds[i], ss[i])
		if lim[i] == 0 {
			return
		}
	}
	idx := make([]int, rank)
	for {
		do, so := 0, 0
		for i := 0; i < rank; i++ {
			do = do*ds[i] + idx[i]
			so = so*ss[i] + idx[i]
		}
		// Copy the innermost run in one go.
		run := lim[rank-1]
		for j := 0; j < run; j++ {
			fn(do+j, so+j)
		}
		// Advance all but the innermost dimension.
		i := rank - 2
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < lim[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return
		}
	}
}
