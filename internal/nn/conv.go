package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over batch-first [batch, inC, H, W] tensors,
// implemented as implicit GEMM (tensor.ConvGemm/ConvGemmBack): the packed
// kernel's B panels are gathered from a per-sample zero-bordered copy of the
// input image (tensor/implicit.go), so the im2col column matrix — formerly
// the largest scratch-arena consumer, one batch·kdim·cols buffer pinned from
// Forward to Backward — is never materialized and the layer retains no
// scratch between steps. Weight has logical shape [outC, inC, kh, kw] so
// that width-slicing (HeteroFL) can take nested channel prefixes along both
// channel dimensions.
//
// 1×1 stride-1 unpadded convolutions skip the gather entirely: im2col is the
// identity layout there (TestIm2ColIdentityKernel), so forward and backward
// route straight to Gemm on the image data.
//
// Backward re-reads the input recorded by the last Forward(train=true). The
// ownership contract (docs/PERF.md) already guarantees the input stays valid
// through the backward pass: a layer's output is reused only by that layer's
// next Forward, which cannot run before this layer's Backward in any
// training loop, including repeated Backward calls under deep supervision.
// The output and input-gradient tensors are layer-owned and reused (valid
// until the layer's next Forward/Backward). Steady-state forward+backward
// does zero heap allocations.
type Conv2D struct {
	InC, OutC  int
	KH, KW     int
	Stride     int
	Pad        int
	Weight     *Param // [outC, inC, kh, kw]
	Bias       *Param // [outC]
	inH, inW   int
	outH, outW int
	batch      int
	trained    bool // last Forward ran train=true; fwdX is valid for Backward

	y  *tensor.Tensor // reused output
	dx *tensor.Tensor // reused input gradient

	// Per-call state threaded through struct fields so the parallel bodies
	// can be allocated once: closures handed to tensor.ParallelFor
	// escape, so a fresh literal per call would be a steady-state heap
	// allocation.
	fwdX    *tensor.Tensor
	bwdGrad *tensor.Tensor
	bwdMid  int // first sample of the second half
	fwdBody func(b int)
	bwdBody func(half int)
	dwParts [2]*tensor.Scratch // per-half weight-gradient partials
	dbParts [2]*tensor.Scratch // per-half bias-gradient partials

	// wpack reads the weights for the duration of one Forward or Backward
	// call: in place, but for their partial last tile, packed once per batch,
	// shared read-only by the per-sample GEMMs and released before returning
	// — never retained between steps.
	wpack tensor.ConvWeights
}

// NewConv2D creates a convolution with He initialization.
func NewConv2D(rng *tensor.RNG, inC, outC, kernel, stride, pad int) *Conv2D {
	c := &Conv2D{
		InC: inC, OutC: outC, KH: kernel, KW: kernel, Stride: stride, Pad: pad,
		Weight: NewParam("conv.w", outC, inC, kernel, kernel),
		Bias:   NewParam("conv.b", outC),
	}
	rng.FillHe(c.Weight.W, inC*kernel*kernel)
	return c
}

// geom returns the tensor-layer geometry of the current input shape.
func (c *Conv2D) geom() tensor.ConvGeom {
	return tensor.ConvGeom{
		Channels: c.InC, Height: c.inH, Width: c.inW,
		KH: c.KH, KW: c.KW, Stride: c.Stride, Pad: c.Pad,
	}
}

// pointwise reports whether the convolution is 1×1 stride-1 unpadded, for
// which the im2col lowering is the identity: the column matrix IS the input
// image, so both directions are plain GEMMs on the stored data.
func (c *Conv2D) pointwise() bool {
	return c.KH == 1 && c.KW == 1 && c.Stride == 1 && c.Pad == 0
}

// Forward applies the convolution. Samples are processed in parallel; each
// per-sample GEMM detects the enclosing parallel region and runs serial.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank("Conv2D", x, 4)
	batch := x.Dim(0)
	if x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expects %d input channels, got %v", c.InC, x.Shape()))
	}
	c.inH, c.inW = x.Dim(2), x.Dim(3)
	c.outH = tensor.ConvOutSize(c.inH, c.KH, c.Stride, c.Pad)
	c.outW = tensor.ConvOutSize(c.inW, c.KW, c.Stride, c.Pad)
	c.batch = batch
	c.y = reuse4(c.y, batch, c.OutC, c.outH, c.outW)
	c.fwdX = x
	c.trained = train
	if c.fwdBody == nil {
		c.fwdBody = func(b int) {
			cols := c.outH * c.outW
			inStride := c.InC * c.inH * c.inW
			outStride := c.OutC * cols
			xb := c.fwdX.Data[b*inStride : (b+1)*inStride]
			out := c.y.Data[b*outStride : (b+1)*outStride]
			if c.pointwise() {
				tensor.Gemm(false, false, c.OutC, cols, c.InC, 1, c.Weight.W.Data, xb, 0, out)
			} else {
				c.wpack.Conv(xb, out)
			}
			for oc := 0; oc < c.OutC; oc++ {
				bias := c.Bias.W.Data[oc]
				orow := out[oc*cols : (oc+1)*cols]
				for i := range orow {
					orow[i] += bias
				}
			}
		}
	}
	if !c.pointwise() {
		c.wpack.PackFwd(c.Weight.W.Data, c.OutC, c.geom())
	}
	tensor.ParallelFor(batch, c.fwdBody)
	c.wpack.Release()
	return c.y
}

// Backward accumulates weight/bias gradients and returns the input gradient.
// It re-gathers panels from the input recorded by the last
// Forward(train=true); that input stays valid for repeated Backward calls
// (deep-supervision backprops a shared trunk once per exit) under the layer
// ownership contract.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !c.trained {
		panic("nn: Conv2D.Backward without a preceding Forward(train=true)")
	}
	batch := c.batch
	c.dx = reuse4(c.dx, batch, c.InC, c.inH, c.inW)

	// Weight gradients accumulate across samples. From four samples up the
	// batch splits into two halves, [0, ⌈n/2⌉) and [⌈n/2⌉, n), each summed
	// into a private arena-backed accumulator and reduced in half order. The
	// grouping depends on the batch alone, never on Parallelism, so the
	// gradient bits are the same on every core count.
	halves, mid := 1, batch
	if batch >= 4 {
		halves, mid = 2, (batch+1)/2
	}
	c.bwdGrad, c.bwdMid = grad, mid
	if c.bwdBody == nil {
		c.bwdBody = func(half int) {
			s, e := 0, c.bwdMid
			if half == 1 {
				s, e = c.bwdMid, c.batch
			}
			kdim := c.InC * c.KH * c.KW
			cols := c.outH * c.outW
			outStride := c.OutC * cols
			inStride := c.InC * c.inH * c.inW
			dw := tensor.GetScratch(c.OutC * kdim)
			db := tensor.GetScratch(c.OutC)
			dw.Zero()
			db.Zero()
			for b := s; b < e; b++ {
				g := c.bwdGrad.Data[b*outStride : (b+1)*outStride]
				xb := c.fwdX.Data[b*inStride : (b+1)*inStride]
				dxb := c.dx.Data[b*inStride : (b+1)*inStride]
				if c.pointwise() {
					// dW += g · xᵀ and dx = Wᵀ · g directly: identical to the
					// column-matrix calls because im2col (and the col2im
					// scatter, one contribution per pixel) is the identity.
					tensor.Gemm(false, true, c.OutC, kdim, cols, 1, g, xb, 1, dw.Data)
					tensor.Gemm(true, false, kdim, cols, c.OutC, 1, c.Weight.W.Data, g, 0, dxb)
				} else {
					c.wpack.ConvBack(xb, g, dw.Data, dxb)
				}
				for oc := 0; oc < c.OutC; oc++ {
					var sum float32
					for _, v := range g[oc*cols : (oc+1)*cols] {
						sum += v
					}
					db.Data[oc] += sum
				}
			}
			c.dwParts[half] = dw
			c.dbParts[half] = db
		}
	}
	if !c.pointwise() {
		c.wpack.PackBwd(c.Weight.W.Data, c.OutC, c.geom())
	}
	tensor.ParallelFor(halves, c.bwdBody)
	c.wpack.Release()
	for half := 0; half < halves; half++ {
		tensor.Axpy(1, c.dwParts[half].Data, c.Weight.G.Data)
		tensor.Axpy(1, c.dbParts[half].Data, c.Bias.G.Data)
		tensor.PutScratch(c.dwParts[half])
		tensor.PutScratch(c.dbParts[half])
		c.dwParts[half] = nil
		c.dbParts[half] = nil
	}
	return c.dx
}

// Params returns the kernel and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// Cost reports per-sample FLOPs (2·outC·inC·kh·kw per output pixel) and
// output activation count. inElems must be inC*H*W; the layer uses its own
// recorded spatial dims when available, otherwise infers square inputs.
func (c *Conv2D) Cost(inElems int) (int, int) {
	h, w := c.inH, c.inW
	if h == 0 {
		// Infer a square spatial size from the element count.
		side := 1
		for side*side*c.InC < inElems {
			side++
		}
		h, w = side, side
	}
	oh := tensor.ConvOutSize(h, c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutSize(w, c.KW, c.Stride, c.Pad)
	flops := 2 * c.OutC * c.InC * c.KH * c.KW * oh * ow
	return flops, c.OutC * oh * ow
}
