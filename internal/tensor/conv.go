package tensor

import "fmt"

// Im2Col unfolds an input image of shape [channels, height, width] (flat
// slice src) into a column matrix dst of shape
// [channels*kh*kw, outH*outW], so that a convolution becomes a single GEMM:
// out[oc, :] = W[oc, :] · dst. Zero padding pad and stride are applied.
func Im2Col(src []float32, channels, height, width, kh, kw, stride, pad int, dst []float32) (outH, outW int) {
	outH = (height+2*pad-kh)/stride + 1
	outW = (width+2*pad-kw)/stride + 1
	cols := outH * outW
	if len(dst) < channels*kh*kw*cols {
		panic("tensor: Im2Col destination too small")
	}
	row := 0
	for c := 0; c < channels; c++ {
		chanBase := c * height * width
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				drow := dst[row*cols : row*cols+cols]
				i := 0
				for oy := 0; oy < outH; oy++ {
					sy := oy*stride - pad + ky
					if sy < 0 || sy >= height {
						for ox := 0; ox < outW; ox++ {
							drow[i] = 0
							i++
						}
						continue
					}
					rowBase := chanBase + sy*width
					for ox := 0; ox < outW; ox++ {
						sx := ox*stride - pad + kx
						if sx < 0 || sx >= width {
							drow[i] = 0
						} else {
							drow[i] = src[rowBase+sx]
						}
						i++
					}
				}
				row++
			}
		}
	}
	return outH, outW
}

// Col2Im folds a column-matrix gradient (shape [channels*kh*kw, outH*outW])
// back into an input-image gradient of shape [channels, height, width],
// accumulating overlapping contributions. dst must be pre-zeroed by the
// caller if accumulation from zero is desired.
func Col2Im(cols []float32, channels, height, width, kh, kw, stride, pad int, dst []float32) {
	outH := (height+2*pad-kh)/stride + 1
	outW := (width+2*pad-kw)/stride + 1
	nc := outH * outW
	// The (oy, ox) coordinates whose tap lands inside the image form a
	// contiguous range per (ky, kx), so the ranges are clamped up front and
	// the inner loop is branch-free; out-of-range taps contributed nothing
	// before, and the in-range taps are visited in the same order, so the
	// accumulation into each dst element is bitwise unchanged.
	row := 0
	for c := 0; c < channels; c++ {
		chanBase := c * height * width
		for ky := 0; ky < kh; ky++ {
			loY, hiY := convTapRange(outH, height, stride, pad, ky)
			for kx := 0; kx < kw; kx++ {
				loX, hiX := convTapRange(outW, width, stride, pad, kx)
				crow := cols[row*nc : row*nc+nc]
				row++
				if loX == hiX {
					// The tap never lands inside the image (a column of pure
					// padding): nothing to add, and loX·stride−pad+kx below
					// may be negative.
					continue
				}
				for oy := loY; oy < hiY; oy++ {
					rowBase := chanBase + (oy*stride-pad+ky)*width
					i := oy * outW
					if stride == 1 {
						d := dst[rowBase+loX+kx-pad:]
						for j, v := range crow[i+loX : i+hiX] {
							d[j] += v
						}
					} else {
						sx := loX*stride - pad + kx
						for ox := loX; ox < hiX; ox++ {
							dst[rowBase+sx] += crow[i+ox]
							sx += stride
						}
					}
				}
			}
		}
	}
}

// convTapRange returns the half-open range [lo, hi) of output coordinates
// whose kernel tap k lands inside [0, size): lo·stride−pad+k ≥ 0 and
// (hi−1)·stride−pad+k < size.
func convTapRange(outSize, size, stride, pad, k int) (lo, hi int) {
	if d := pad - k; d > 0 {
		lo = (d + stride - 1) / stride
		if lo > outSize {
			lo = outSize
		}
	}
	if d := size + pad - k; d > 0 {
		hi = (d + stride - 1) / stride
		if hi > outSize {
			hi = outSize
		}
	}
	if hi < lo {
		hi = lo
	}
	return
}

// ConvOutSize returns the spatial output size of a convolution/pooling with
// the given input size, kernel, stride and padding. A kernel larger than the
// padded input has no output; the formula would go negative or — truncating
// toward zero at stride > 1 — count a window that hangs over the edge, so it
// panics instead.
func ConvOutSize(in, kernel, stride, pad int) int {
	if in+2*pad < kernel {
		panic(fmt.Sprintf("tensor: ConvOutSize kernel %d does not fit input %d with pad %d", kernel, in, pad))
	}
	return (in+2*pad-kernel)/stride + 1
}
