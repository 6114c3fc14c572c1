package nn

import (
	"repro/internal/tensor"
)

// MaxPool2D is a 2-D max pooling layer over [batch, C, H, W] tensors.
// Output and input-gradient buffers are layer-owned and reused; the forward
// body closure is allocated once (closures given to the parallel kernels
// escape) and reads its per-call state through the struct.
type MaxPool2D struct {
	Size, Stride int
	argmax       []int32
	inShape      []int
	y, dx        *tensor.Tensor
	fwdX         *tensor.Tensor
	fwdBody      func(bc int)
}

// NewMaxPool2D creates a pooling layer with the given window and stride.
func NewMaxPool2D(size, stride int) *MaxPool2D {
	return &MaxPool2D{Size: size, Stride: stride}
}

// Forward records the argmax of each window for backprop.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank("MaxPool2D", x, 4)
	batch, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh := tensor.ConvOutSize(h, p.Size, p.Stride, 0)
	ow := tensor.ConvOutSize(w, p.Size, p.Stride, 0)
	p.inShape = x.Shape()
	p.y = reuse4(p.y, batch, c, oh, ow)
	y := p.y
	if cap(p.argmax) < y.Len() {
		p.argmax = make([]int32, y.Len())
	}
	p.argmax = p.argmax[:y.Len()]
	p.fwdX = x
	if p.fwdBody == nil {
		p.fwdBody = func(bc int) {
			h, w := p.inShape[2], p.inShape[3]
			oh, ow := p.y.Dim(2), p.y.Dim(3)
			planeIn := h * w
			planeOut := oh * ow
			in := p.fwdX.Data[bc*planeIn : (bc+1)*planeIn]
			out := p.y.Data[bc*planeOut : (bc+1)*planeOut]
			am := p.argmax[bc*planeOut : (bc+1)*planeOut]
			i := 0
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := int32(-1)
					var bm float32
					for ky := 0; ky < p.Size; ky++ {
						sy := oy*p.Stride + ky
						if sy >= h {
							break
						}
						for kx := 0; kx < p.Size; kx++ {
							sx := ox*p.Stride + kx
							if sx >= w {
								break
							}
							v := in[sy*w+sx]
							if best < 0 || v > bm {
								bm = v
								best = int32(sy*w + sx)
							}
						}
					}
					out[i] = bm
					am[i] = best
					i++
				}
			}
		}
	}
	tensor.ParallelFor(batch*c, p.fwdBody)
	return y
}

// Backward routes each gradient to its recorded argmax position.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	p.dx = reuse4(p.dx, p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3])
	dx := p.dx
	dx.Zero() // the scatter below accumulates
	batch, c := p.inShape[0], p.inShape[1]
	planeIn := p.inShape[2] * p.inShape[3]
	planeOut := grad.Dim(2) * grad.Dim(3)
	for bc := 0; bc < batch*c; bc++ {
		g := grad.Data[bc*planeOut : (bc+1)*planeOut]
		am := p.argmax[bc*planeOut : (bc+1)*planeOut]
		d := dx.Data[bc*planeIn : (bc+1)*planeIn]
		for i, gv := range g {
			d[am[i]] += gv
		}
	}
	return dx
}

// Params returns nil.
func (p *MaxPool2D) Params() []*Param { return nil }

// Cost reports size² comparisons per output element.
func (p *MaxPool2D) Cost(inElems int) (int, int) {
	out := inElems / (p.Stride * p.Stride)
	return inElems, out
}

// GlobalAvgPool averages each channel's spatial plane, producing a rank-2
// [batch, C] tensor; the standard head input for ResNet-style models.
type GlobalAvgPool struct {
	inShape []int
	y, dx   *tensor.Tensor
}

// NewGlobalAvgPool returns a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward averages over H×W per channel.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank("GlobalAvgPool", x, 4)
	batch, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	p.inShape = x.Shape()
	p.y = reuse2(p.y, batch, c)
	y := p.y
	plane := h * w
	inv := 1 / float32(plane)
	for bc := 0; bc < batch*c; bc++ {
		var s float32
		for _, v := range x.Data[bc*plane : (bc+1)*plane] {
			s += v
		}
		y.Data[bc] = s * inv
	}
	return y
}

// Backward spreads each gradient uniformly over its plane.
func (p *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	p.dx = reuse4(p.dx, p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3])
	dx := p.dx
	plane := p.inShape[2] * p.inShape[3]
	inv := 1 / float32(plane)
	for bc, gv := range grad.Data {
		d := dx.Data[bc*plane : (bc+1)*plane]
		g := gv * inv
		for i := range d {
			d[i] = g
		}
	}
	return dx
}

// Params returns nil.
func (p *GlobalAvgPool) Params() []*Param { return nil }

// Cost reports one FLOP per input element and C outputs.
func (p *GlobalAvgPool) Cost(inElems int) (int, int) { return inElems, inElems } // outElems fixed at runtime

// Flatten reshapes [batch, ...] to [batch, rest]. It shares underlying data.
type Flatten struct {
	inShape []int
}

// NewFlatten returns a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all but the batch dimension.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = x.Shape()
	return x.Reshape(x.Dim(0), -1)
}

// Backward restores the original shape.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.inShape...)
}

// Params returns nil.
func (f *Flatten) Params() []*Param { return nil }

// Cost reports zero FLOPs.
func (f *Flatten) Cost(inElems int) (int, int) { return 0, inElems }
