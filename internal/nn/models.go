package nn

import (
	"repro/internal/tensor"
)

// WidthScale scales a channel/unit count by rate, keeping at least one unit.
// It is the nesting rule HeteroFL uses: a rate-p client owns the first
// ⌈p·n⌉ units of every hidden dimension.
func WidthScale(n int, rate float64) int {
	m := int(float64(float64(n)*rate) + 0.9999)
	if m < 1 {
		m = 1
	}
	if m > n {
		m = n
	}
	return m
}

// NewMLP builds a multi-layer perceptron: in → hidden... → classes with ReLU
// between layers. Mirrors the paper's 3-layer MLP for HAR. rate width-scales
// the hidden layers (1.0 = full model).
func NewMLP(rng *tensor.RNG, in int, hidden []int, classes int, rate float64) *Sequential {
	s := NewSequential()
	prev := in
	for _, h := range hidden {
		hw := WidthScale(h, rate)
		s.Append(NewDense(rng, prev, hw), NewReLU())
		prev = hw
	}
	s.Append(NewDense(rng, prev, classes))
	return s
}

// VGGBlock is the repeated layer pattern the paper identifies in VGG:
// [Conv, BN, ReLU, Pool]. pool may be 1 to skip pooling.
func VGGBlock(rng *tensor.RNG, inC, outC, pool int) *Sequential {
	s := NewSequential(
		NewConv2D(rng, inC, outC, 3, 1, 1),
		NewBatchNorm(outC),
		NewReLU(),
	)
	if pool > 1 {
		s.Append(NewMaxPool2D(pool, pool))
	}
	return s
}

// NewVGGLike builds a scaled-down VGG-style network over [batch, inC, side,
// side] images: a sequence of conv blocks with pooling, then a dense head.
// channels lists the per-block output channels; a pooling layer follows each
// block while the spatial size stays > 2.
func NewVGGLike(rng *tensor.RNG, inC, side int, channels []int, classes int, rate float64) *Sequential {
	s := NewSequential()
	prev := inC
	sp := side
	for _, ch := range channels {
		chw := WidthScale(ch, rate)
		pool := 1
		if sp > 2 {
			pool = 2
		}
		s.Append(VGGBlock(rng, prev, chw, pool))
		if pool > 1 {
			sp /= 2
		}
		prev = chw
	}
	s.Append(NewFlatten(), NewDense(rng, prev*sp*sp, classes))
	return s
}

// ResNetBlock is a basic residual block: two 3×3 convs with BN/ReLU and an
// identity (or 1×1-projected) skip.
func ResNetBlock(rng *tensor.RNG, inC, outC, stride int) *Residual {
	body := NewSequential(
		NewConv2D(rng, inC, outC, 3, stride, 1),
		NewBatchNorm(outC),
		NewReLU(),
		NewConv2D(rng, outC, outC, 3, 1, 1),
		NewBatchNorm(outC),
	)
	var proj Layer
	if inC != outC || stride != 1 {
		proj = NewSequential(
			NewConv2D(rng, inC, outC, 1, stride, 0),
			NewBatchNorm(outC),
		)
	}
	return NewResidual(body, proj)
}

// NewResNetLike builds a scaled-down ResNet: a conv stem, a residual block
// per stage (stage i downsamples when i > 0), then global average pooling and
// a dense head.
func NewResNetLike(rng *tensor.RNG, inC, side int, stages []int, classes int, rate float64) *Sequential {
	stem := WidthScale(stages[0], rate)
	s := NewSequential(
		NewConv2D(rng, inC, stem, 3, 1, 1),
		NewBatchNorm(stem),
		NewReLU(),
	)
	prev := stem
	for i, ch := range stages {
		chw := WidthScale(ch, rate)
		stride := 1
		if i > 0 {
			stride = 2
		}
		s.Append(ResNetBlock(rng, prev, chw, stride), NewReLU())
		prev = chw
	}
	s.Append(NewGlobalAvgPool(), NewDense(rng, prev, classes))
	return s
}

// ForwardCost estimates per-sample forward FLOPs and peak activation
// elements for a model given its input element count per sample.
func ForwardCost(model Layer, inElems int) (flops, peakAct int) {
	if c, ok := model.(Coster); ok {
		f, out := c.Cost(inElems)
		peak := inElems
		if out > peak {
			peak = out
		}
		return f, peak
	}
	return 0, inElems
}

// TrainCost estimates per-sample training FLOPs as 3× forward (forward +
// input grads + weight grads), the standard rule of thumb, and training peak
// memory elements as parameters + gradients + 2× activations.
func TrainCost(model Layer, inElems int) (flops, memElems int) {
	f, act := ForwardCost(model, inElems)
	params := ParamCount(model.Params())
	return 3 * f, 2*params + 2*act + inElems
}
