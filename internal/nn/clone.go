package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// CloneLayer deep-copies a layer: same architecture, independent parameter
// and state tensors, no shared caches. Sub-model extraction and per-device
// model instantiation are built on this.
func CloneLayer(l Layer) Layer { return cloneLayer(l, cloneTrainable) }

// CloneWeights is CloneLayer without gradient accumulators: a copy that can
// run Forward and be read (transferred, aggregated, evaluated) at half the
// memory. EnsureGrads makes it trainable.
func CloneWeights(l Layer) Layer { return cloneLayer(l, cloneWeights) }

// CloneOver is CloneWeights whose parameters are windows of vec instead of
// copies of l's: in Params() order, each parameter's weights are the next
// NumEl() elements of vec, shared with it — a flat vector that just crossed a
// link becomes a layer without being copied tensor by tensor. States are
// copied from l. It returns the layer and the rest of vec, which must hold at
// least ParamCount(l.Params()) elements.
func CloneOver(l Layer, vec []float32) (Layer, []float32) {
	c := cloneLayer(l, viewWeights)
	for _, p := range c.Params() {
		n := p.W.Len()
		p.W = tensor.FromSlice(vec[:n:n], p.W.Shape()...)
		vec = vec[n:]
	}
	return c, vec
}

// Releaser is a layer built from parts this package does not walk (a routed
// sub-model): ReleaseBuffers hands the whole release to its method, which
// must leave it as ReleaseBuffers leaves a layer of this package.
type Releaser interface{ ReleaseBuffers() }

// ReleaseBuffers ends a training or evaluation bout on l in place: every
// gradient accumulator and every reuse buffer its tree holds goes back to the
// arena (tensor.Release) for the next bout — on whichever model — to borrow.
// The loops that run a bout call it as they return, so a model kept between
// bouts holds its weights and nothing else. Tensors l returned before the
// call are dead. l keeps its layer objects, weights, states and what it
// recorded about its input geometry (Conv2D.Cost reads that); EnsureGrads
// re-arms it, and it needs a Forward before its next Backward.
func ReleaseBuffers(l Layer) {
	if r, ok := l.(Releaser); ok {
		r.ReleaseBuffers()
		return
	}
	for _, p := range l.Params() {
		release(&p.G)
	}
	releaseActivations(l)
}

func releaseActivations(l Layer) {
	switch v := l.(type) {
	case *Dense:
		release(&v.y, &v.dx)
		v.x = nil
	case *Conv2D:
		release(&v.y, &v.dx)
		v.fwdX, v.bwdGrad, v.trained = nil, nil, false
	case *BatchNorm:
		release(&v.y, &v.dx, &v.xhat)
		v.invStd, v.accA, v.accB = nil, nil, nil
	case *ReLU:
		release(&v.y, &v.dx)
	case *MaxPool2D:
		release(&v.y, &v.dx)
		v.fwdX = nil
	case *GlobalAvgPool:
		release(&v.y, &v.dx)
	case *Sequential:
		for _, inner := range v.Layers {
			releaseActivations(inner)
		}
	case *Residual:
		releaseActivations(v.Body)
		if v.Proj != nil {
			releaseActivations(v.Proj)
		}
	}
}

func release(bufs ...**tensor.Tensor) {
	for _, b := range bufs {
		tensor.Release(*b)
		*b = nil
	}
}

// EnsureGrads gives every parameter that lacks one (CloneWeights,
// ReleaseBuffers) a zero gradient accumulator — the state every optimizer
// step leaves behind.
func EnsureGrads(params []*Param) {
	for _, p := range params {
		if p.G == nil {
			p.G = zeroLike(p.W)
		}
	}
}

// zeroLike borrows a zeroed tensor of w's shape: gradient accumulators and
// optimizer state live for one bout, like the layers' buffers.
func zeroLike(w *tensor.Tensor) *tensor.Tensor {
	z := tensor.Borrow(w.Shape()...)
	z.Zero()
	return z
}

// cloneMode says what a rebuilt layer's tensors are.
type cloneMode int

const (
	cloneTrainable cloneMode = iota // copied weights and states, zero gradients
	cloneWeights                    // copied weights and states, no gradients
	viewWeights                     // the source's own weights until CloneOver re-points them, copied states, no gradients
)

func (m cloneMode) param(p *Param) *Param {
	switch m {
	case cloneTrainable:
		// A plain accumulator, not a loan: a clone trained by hand, not
		// through a bout loop, is never released, and a borrowed array
		// would cost it its size class for nothing.
		return &Param{Name: p.Name, W: p.W.Clone(), G: tensor.New(p.W.Shape()...)}
	case cloneWeights:
		return &Param{Name: p.Name, W: p.W.Clone()}
	default:
		return &Param{Name: p.Name, W: p.W}
	}
}

func cloneLayer(l Layer, m cloneMode) Layer {
	switch v := l.(type) {
	case *Dense:
		return &Dense{In: v.In, Out: v.Out, Weight: m.param(v.Weight), Bias: m.param(v.Bias)}
	case *Conv2D:
		return &Conv2D{
			InC: v.InC, OutC: v.OutC, KH: v.KH, KW: v.KW, Stride: v.Stride, Pad: v.Pad,
			Weight: m.param(v.Weight), Bias: m.param(v.Bias),
		}
	case *BatchNorm:
		return &BatchNorm{Feat: v.Feat, Eps: v.Eps, Momentum: v.Momentum,
			Gamma: m.param(v.Gamma), Beta: m.param(v.Beta),
			RunMean: v.RunMean.Clone(), RunVar: v.RunVar.Clone()}
	case *ReLU:
		return NewReLU()
	case *MaxPool2D:
		return NewMaxPool2D(v.Size, v.Stride)
	case *GlobalAvgPool:
		return NewGlobalAvgPool()
	case *Flatten:
		return NewFlatten()
	case *Identity:
		return NewIdentity()
	case Identity:
		return Identity{}
	case *Sequential:
		s := NewSequential()
		for _, inner := range v.Layers {
			s.Append(cloneLayer(inner, m))
		}
		return s
	case *Residual:
		var proj Layer
		if v.Proj != nil {
			proj = cloneLayer(v.Proj, m)
		}
		return NewResidual(cloneLayer(v.Body, m), proj)
	default:
		panic(fmt.Sprintf("nn: CloneLayer does not support %T", l))
	}
}
