package tensor

import (
	"fmt"
	"sync"
)

// Implicit-GEMM convolution. The im2col lowering (conv.go) turns Conv2D into
// C[oc, (oy,ox)] = W[oc, :] · col[:, (oy,ox)] — but the column matrix `col`
// is pure data movement: every element is a pixel of the input image (or a
// padding zero) addressed by (channel, ky, kx, oy, ox). The GEMM kernel
// (pack.go) reads B as nr-wide rows of panels, which an image holds only
// where a window does. So ConvGemm / ConvGemmBack delete the column matrix:
// their pack routines walk the (channel, ky, kx, oy, ox) coordinate space
// and gather pixels straight into the packed panel layout.
//
// The gathers read a once-padded copy of the image: padImage frames the
// sample with its zero border ([C, H+2p, W+2p], in the arena block the call
// already holds; the image itself when Pad == 0), after which tap (ky, kx)
// of output pixel (oy, ox) is always the real element (oy·stride+ky,
// ox·stride+kx) of its channel plane. No tap is ever out of range, so the
// forward gather (packBConv) is unconditional window copies, the transposed
// gather of the weight-gradient product (packBConvT) is nr fixed offsets
// (tabled once per geometry, convTaps) walked pixel-major, and the col2im
// fold of the input gradient (foldCols) accumulates into the padded region
// without clamping and copies the interior out. The border is zeros and is the only source of zeros.
//
// Bitwise contract: the panels packBConv/packBConvT produce hold, element
// for element, the values the kernel reads from a materialized im2col(src)
// (or its transpose), in the pack.go panel layout with the same zero
// padding; they flow through the same runGemm band grid and the same full-k
// ascending-p summation chains; foldCols adds each column-gradient
// element onto the pixel Col2Im adds it onto, and every pixel takes its
// addends in the order Col2Im gives them (ascending (ky, kx)). The implicit
// path is therefore bitwise identical to the retained Im2Col + Gemm + Col2Im
// reference (ConvGemmRef / ConvGemmBackRef below), which stays as the
// differential-test oracle the way GemmNaive anchors the packed GEMM. The
// implicit_test.go suite pins this for every stride/pad/kernel shape the
// experiments use plus fuzzed shapes (TestConvGemmFuzzShapes, FuzzConvGemm).
//
// On amd64 each of these transforms — padImage, unpadImage, the two gathers
// and the fold's three-tap passes — has an AVX twin (implicit_amd64.s) that
// moves the data eight floats at a time where the geometry has rows of
// whole four-pixel groups at stride 1 or 2. strictAVX selects the twins, as
// it selects the GEMM kernel; the Go loops stay the portable path and the
// oracle each twin is pinned against bit for bit (TestConvMovesMatchPortable):
// the gathers and copies only move elements, and the fold twins add each
// pixel's addends in the Go loop's order.
//
// What this buys (docs/PERF.md § Implicit GEMM): the forward column matrix
// (batch·kdim·cols floats — the largest scratch-arena consumer) is never
// materialized, written, or re-read; the backward weight-gradient GEMM
// re-gathers from the live input image instead of a cached column matrix, so
// the conv layer retains no scratch between steps at all.

// ConvGeom describes one convolution lowering: an input image of
// [Channels, Height, Width] swept by a KH×KW kernel at the given stride and
// zero padding.
type ConvGeom struct {
	Channels, Height, Width int
	KH, KW                  int
	Stride, Pad             int
}

// OutH returns the output height of the convolution.
func (g ConvGeom) OutH() int { return (g.Height+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width of the convolution.
func (g ConvGeom) OutW() int { return (g.Width+2*g.Pad-g.KW)/g.Stride + 1 }

// Kdim returns the contraction extent Channels·KH·KW (rows of the virtual
// column matrix).
func (g ConvGeom) Kdim() int { return g.Channels * g.KH * g.KW }

// Cols returns OutH·OutW (columns of the virtual column matrix).
func (g ConvGeom) Cols() int { return g.OutH() * g.OutW() }

// fits reports whether the kernel fits inside the padded image, i.e. whether
// the convolution has any output at all. Where it does not, OutH/OutW are
// meaningless (negative, or — through truncating division at stride > 1 —
// a positive count of windows that hang over the image's edge).
func (g ConvGeom) fits() bool {
	return g.Height+2*g.Pad >= g.KH && g.Width+2*g.Pad >= g.KW
}

// checkConvOperands validates operand extents with shape-carrying messages,
// mirroring checkGemmOperands: a short operand must die loudly at the entry
// point, not as an index panic inside a pack routine. Operands a caller does
// not supply at its entry point (the pack-only and gather-only paths) are
// passed as nil and skipped.
func checkConvOperands(fn string, g ConvGeom, outC int, w, src, out []float32, outLen int, outName string) {
	if g.Stride < 1 || g.KH < 1 || g.KW < 1 || g.Pad < 0 {
		panic(fmt.Sprintf("tensor: %s invalid geometry %+v", fn, g))
	}
	if !g.fits() {
		panic(fmt.Sprintf("tensor: %s kernel %dx%d does not fit the padded image %dx%d (h,w=%d,%d pad=%d)",
			fn, g.KH, g.KW, g.Height+2*g.Pad, g.Width+2*g.Pad, g.Height, g.Width, g.Pad))
	}
	if img := g.Channels * g.Height * g.Width; src != nil && len(src) < img {
		panic(fmt.Sprintf("tensor: %s image too short: len=%d, need channels*h*w=%d*%d*%d=%d",
			fn, len(src), g.Channels, g.Height, g.Width, img))
	}
	if wn := outC * g.Kdim(); w != nil && len(w) < wn {
		panic(fmt.Sprintf("tensor: %s weight too short: len=%d, need outC*kdim=%d*%d=%d",
			fn, len(w), outC, g.Kdim(), wn))
	}
	if out != nil && len(out) < outLen {
		panic(fmt.Sprintf("tensor: %s %s too short: len=%d, need %d", fn, outName, len(out), outLen))
	}
}

// paddedLen returns the element count of the padded image padImage builds:
// zero when Pad == 0 (the gathers read src itself), else C·(H+2p)·(W+2p).
func (g ConvGeom) paddedLen() int {
	if g.Pad == 0 {
		return 0
	}
	return g.Channels * (g.Height + 2*g.Pad) * (g.Width + 2*g.Pad)
}

// padImage returns the image the gathers and the fold address: src framed by
// a zero border of Pad pixels, [C, H+2p, W+2p], written into dst (which must
// hold paddedLen elements) — or src itself when Pad == 0. A kernel tap of an
// output pixel is then always a real element of the returned image, at
// (oy·stride+ky, ox·stride+kx) of its channel plane: checkConvOperands has
// rejected every geometry whose kernel does not fit, so no tap is ever out
// of range and the border is the only source of padding zeros.
func padImage(src []float32, g ConvGeom, dst []float32) []float32 {
	h, w, pad := g.Height, g.Width, g.Pad
	if pad == 0 {
		return src[:g.Channels*h*w]
	}
	dst = dst[:g.paddedLen()]
	padRows(src, g, dst)
	return dst
}

// goPadRows is padRows' portable path: zero the padded image, then copy the
// interior rows in. Zeroing only the border, as the AVX twin does, measured
// slower in Go at the model zoo's sizes (pad 1, rows of 4 to 16 floats): a
// one-call vectorised clear of the whole image costs less than the per-row
// stores of two border cells.
func goPadRows(src []float32, g ConvGeom, dst []float32) {
	h, w, pad := g.Height, g.Width, g.Pad
	wp := w + 2*pad
	clear(dst)
	o := pad*wp + pad
	for c := 0; c < g.Channels; c++ {
		for y := 0; y < h; y++ {
			copy(dst[o:o+w], src[(c*h+y)*w:])
			o += wp
		}
		o += 2 * pad * wp
	}
}

// goUnpadImage is unpadImage's portable path: it copies the interior of a
// padded image back out, the inverse of padImage's row copies, dropping the
// border.
func goUnpadImage(img []float32, g ConvGeom, dst []float32) {
	h, w, pad := g.Height, g.Width, g.Pad
	wp := w + 2*pad
	o := pad*wp + pad
	for c := 0; c < g.Channels; c++ {
		for y := 0; y < h; y++ {
			copy(dst[(c*h+y)*w:(c*h+y+1)*w], img[o:])
			o += wp
		}
		o += 2 * pad * wp
	}
}

// copy4 copies one fixed-width window. Written as a tuple assignment, which
// the compiler pairs into two 8-byte loads and stores; the array assignment
// *d = *s measured no faster here, and at any wider width it becomes a
// memmove call (the pointers may alias), which costs more than the copy.
func copy4(d, s *[nr / 2]float32) {
	d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
}

// stride4 is copy4 from a strided source: every stride-th element of s.
func stride4(d *[nr / 2]float32, s []float32, stride int) {
	d[0], d[1], d[2], d[3] = s[0], s[stride], s[2*stride], s[3*stride]
}

// packBConv packs the virtual column matrix (kdim × cols, never built) into
// nr-column B panels: element (p, j) of the panel layout — the value the
// kernel reads as col[p][j] of a materialized column matrix — is the pixel
// the im2col row p = (channel, ky, kx) and column j = (oy, ox) address. img
// is the padded image (padImage), so a padding tap reads a border zero like
// any other pixel and every copy is unconditional. dst must hold
// ceil(cols/nr)·nr·kdim elements.
func packBConv(img []float32, g ConvGeom, dst []float32) {
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	kdim := g.Kdim()
	stride := g.Stride
	wp := g.Width + 2*g.Pad
	plane := (g.Height + 2*g.Pad) * wp

	// Fixed-width panels. When outW is a multiple of nr/2, each half of a
	// panel — nr/2 consecutive output pixels — lies within one output row, so
	// a k-step is two fixed-width window copies (adjacent windows of one row
	// when outW is a multiple of nr, one window from each of two rows when
	// outW == nr/2) with no run table. The choice reads the geometry only. A
	// last panel holding a single half falls to the general loop below.
	const half = nr / 2
	j0 := 0
	if outW%half == 0 {
		for ; j0+nr <= cols; j0 += nr {
			oy0, oy1 := j0/outW, (j0+half)/outW
			off0 := oy0*stride*wp + (j0-oy0*outW)*stride
			off1 := oy1*stride*wp + (j0+half-oy1*outW)*stride
			packPanel(img, g, off0, off1, dst[j0*kdim:j0*kdim+kdim*nr])
		}
	}

	// General panels. A panel's nr output pixels split into runs sharing one
	// output row (at most nr runs; usually one or two), each a walk along the
	// padded row at the stride. The run table — panel column range and the
	// run's offset within a channel plane at tap (0, 0) — is built once per
	// panel; a tap only adds its (c, ky, kx) offset.
	var segStart, segLen, segOff [nr]int
	for ; j0 < cols; j0 += nr {
		w8 := cols - j0
		if w8 > nr {
			w8 = nr
		}
		nseg := 0
		oy := j0 / outW
		ox := j0 - oy*outW
		for cc := 0; cc < w8; nseg++ {
			l := outW - ox
			if l > w8-cc {
				l = w8 - cc
			}
			segStart[nseg] = cc
			segLen[nseg] = l
			segOff[nseg] = oy*stride*wp + ox*stride
			cc += l
			oy, ox = oy+1, 0
		}
		panel := dst[j0*kdim : j0*kdim+kdim*nr]
		ri := 0
		for c := 0; c < g.Channels; c++ {
			for ky := 0; ky < g.KH; ky++ {
				for kx := 0; kx < g.KW; kx++ {
					tap := img[c*plane+ky*wp+kx:]
					dp := panel[ri : ri+nr]
					for s := 0; s < nseg; s++ {
						d := dp[segStart[s] : segStart[s]+segLen[s]]
						run := tap[segOff[s]:]
						if stride == 1 {
							copy(d, run)
							continue
						}
						for i := range d {
							d[i] = run[i*stride]
						}
					}
					for cc := w8; cc < nr; cc++ {
						dp[cc] = 0
					}
					ri += nr
				}
			}
		}
	}
}

// goPackPanel is packPanel's portable path: one fixed-width panel of
// packBConv, whose two halves are the nr/2-pixel windows at off0 and off1 of
// each tap's channel plane.
func goPackPanel(img []float32, g ConvGeom, off0, off1 int, panel []float32) {
	const half = nr / 2
	stride := g.Stride
	wp := g.Width + 2*g.Pad
	plane := (g.Height + 2*g.Pad) * wp
	ri := 0
	for c := 0; c < g.Channels; c++ {
		for ky := 0; ky < g.KH; ky++ {
			row := img[c*plane+ky*wp:]
			for kx := 0; kx < g.KW; kx++ {
				d := (*[nr]float32)(panel[ri:])
				d0, d1 := (*[half]float32)(d[:half]), (*[half]float32)(d[half:])
				if stride == 1 {
					copy4(d0, (*[half]float32)(row[off0+kx:]))
					copy4(d1, (*[half]float32)(row[off1+kx:]))
				} else {
					stride4(d0, row[off0+kx:], stride)
					stride4(d1, row[off1+kx:], stride)
				}
				ri += nr
			}
		}
	}
}

// convTaps returns the offset into the padded image of every im2col row
// (channel, ky, kx) of g — channel·plane + ky·wp + kx — in row order, padded
// to whole nr-wide panels: panel t of packBConvT takes its nr taps from
// taps[t·nr:]. The lanes past kdim repeat the last real tap, so the AVX
// gather reads a real element there (and clears the lane). The table is a
// function of the geometry alone; PackBwd builds it once for all the
// samples ConvBack then gathers, into dst's backing array when it has room.
func convTaps(g ConvGeom, dst []int) []int {
	wp := g.Width + 2*g.Pad
	plane := (g.Height + 2*g.Pad) * wp
	dst = dst[:0]
	for c := 0; c < g.Channels; c++ {
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				dst = append(dst, c*plane+ky*wp+kx)
			}
		}
	}
	for last := dst[len(dst)-1]; len(dst)%nr != 0; {
		dst = append(dst, last)
	}
	return dst
}

// goPackBConvT is packBConvT's portable path. packBConvT packs the
// transpose view of the virtual column matrix — op(B) = colᵀ (cols × kdim),
// the B operand of the backward weight-gradient GEMM — into nr-column
// panels, identical to packB(col, k, n, true, …). Panels run over the kdim
// dimension: a panel's nr columns are nr consecutive im2col rows
// (channel, ky, kx), i.e. nr fixed offsets into the padded image img (taps,
// from convTaps), and its k steps are the output pixels in ascending
// (oy, ox). The walk is pixel-major, so each k-step is one contiguous
// nr-float store of the nr taps of that pixel. dst must hold
// ceil(kdim/nr)·nr·cols elements.
func goPackBConvT(img []float32, g ConvGeom, taps []int, dst []float32) {
	cols, kdim := g.Cols(), g.Kdim()
	for j0 := 0; j0 < kdim; j0 += nr {
		goPackTPanel(img, g, (*[nr]int)(taps[j0:]), min(kdim-j0, nr), dst[j0*cols:j0*cols+cols*nr])
	}
}

// goPackTPanel is one panel of goPackBConvT: the w8 taps at off for every
// output pixel in ascending (oy, ox). The columns
// past w8 (a last panel of a kdim that is not a multiple of nr) are the panel
// layout's zero fill.
func goPackTPanel(img []float32, g ConvGeom, off *[nr]int, w8 int, panel []float32) {
	outH, outW, stride := g.OutH(), g.OutW(), g.Stride
	wp := g.Width + 2*g.Pad
	i := 0
	if w8 == nr {
		o0, o1, o2, o3, o4, o5, o6, o7 := off[0], off[1], off[2], off[3], off[4], off[5], off[6], off[7]
		for oy := 0; oy < outH; oy++ {
			row := img[oy*stride*wp:]
			for ox := 0; ox < outW; ox++ {
				px := row[ox*stride:]
				d := (*[nr]float32)(panel[i:])
				d[0] = px[o0]
				d[1] = px[o1]
				d[2] = px[o2]
				d[3] = px[o3]
				d[4] = px[o4]
				d[5] = px[o5]
				d[6] = px[o6]
				d[7] = px[o7]
				i += nr
			}
		}
		return
	}
	for oy := 0; oy < outH; oy++ {
		row := img[oy*stride*wp:]
		for ox := 0; ox < outW; ox++ {
			px := row[ox*stride:]
			d := (*[nr]float32)(panel[i:])
			for c := 0; c < w8; c++ {
				d[c] = px[off[c]]
			}
			for c := w8; c < nr; c++ {
				d[c] = 0
			}
			i += nr
		}
	}
}

// foldCols is the col2im fold over the padded image: element (oy, ox) of row
// (c, ky, kx) of the column gradient dcol (kdim × cols) is added onto the
// pixel of channel c its tap addresses. What fixes the bits of dx is the
// order in which one pixel takes its addends, and Col2Im's visiting order
// gives each pixel its addends in ascending (ky, kx) — for a given pixel and
// tap there is at most one (oy, ox). Every pass below keeps that order, so
// every interior element, starting from the same zero, ends with the same
// bits. Contributions of padding taps land in the border, which the caller
// drops. img must be zeroed by the caller.
//
// A 3-wide kernel at stride 1 or 2 — every 3×3 conv of the model zoo — runs a
// three-tap pass: the three taps of a kernel row address one padded row, so
// one pass over that row adds all three and each pixel is loaded and stored
// once per kernel row instead of once per tap. Kernel rows run in ascending
// (c, ky) outside, so a pixel still takes its taps ky-major.
func foldCols(dcol []float32, g ConvGeom, img []float32) {
	outH, outW := g.OutH(), g.OutW()
	nc := outH * outW
	stride := g.Stride
	wp := g.Width + 2*g.Pad
	plane := (g.Height + 2*g.Pad) * wp
	if g.KW == 3 && (stride == 1 && outW >= 2 || stride == 2) {
		fold3(dcol, g, img)
		return
	}
	row := 0
	for c := 0; c < g.Channels; c++ {
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				crow := dcol[row*nc : row*nc+nc]
				tap := img[c*plane+ky*wp+kx:]
				for oy := 0; oy < outH; oy++ {
					d := tap[oy*stride*wp:]
					for ox, v := range crow[oy*outW : oy*outW+outW] {
						d[ox*stride] += v
					}
				}
				row++
			}
		}
	}
}

// goFold3 is fold3's portable path, foldCols' three-tap pass. At stride 1,
// row (c, oy+ky) takes kx = 0, 1, 2 of output column j at pixels j, j+1 and
// j+2, so pixel j adds k0[j], then k1[j−1], then k2[j−2], left to right
// (needs outW ≥ 2). At stride 2, row (c, 2·oy+ky) takes them at pixels 2j,
// 2j+1 and 2j+2: even pixel 2m adds k0[m], then k2[m−1]; odd pixel 2m+1
// adds k1[m].
func goFold3(dcol []float32, g ConvGeom, img []float32) {
	outH, outW := g.OutH(), g.OutW()
	nc := outH * outW
	wp := g.Width + 2*g.Pad
	plane := (g.Height + 2*g.Pad) * wp
	for ck := 0; ck < g.Channels*g.KH; ck++ {
		c, ky := ck/g.KH, ck%g.KH
		taps := dcol[3*ck*nc : 3*(ck+1)*nc]
		for oy := 0; oy < outH; oy++ {
			k0 := taps[oy*outW:][:outW]
			k1 := taps[nc+oy*outW:][:outW]
			k2 := taps[2*nc+oy*outW:][:outW]
			if g.Stride == 2 {
				t := img[c*plane+(2*oy+ky)*wp:][:2*outW+1]
				t[0] += k0[0]
				t[1] += k1[0]
				for m := 1; m < len(k0); m++ {
					t[2*m] = t[2*m] + k0[m] + k2[m-1]
					t[2*m+1] += k1[m]
				}
				t[2*outW] += k2[outW-1]
				continue
			}
			t := img[c*plane+(oy+ky)*wp:][:outW+2]
			t[0] += k0[0]
			t[1] = t[1] + k0[1] + k1[0]
			for j := 2; j < len(k0); j++ {
				t[j] = t[j] + k0[j] + k1[j-1] + k2[j-2]
			}
			t[outW] = t[outW] + k1[outW-1] + k2[outW-2]
			t[outW+1] += k2[outW-1]
		}
	}
}

// ConvWeights holds the weight matrix as the two conv products read it, so
// a batch loop prepares W once instead of once per sample: op(A) = W for the
// forward product, op(A) = Wᵀ for the input-gradient product. The kernel
// reads both in place from W, partial last tile included, so W must stay
// unchanged until Release; PackBwd also builds the dW gather's tap table.
// The operands are read-only during the sweep and safe to share across
// parallel per-sample GEMMs. The zero value is ready to use.
type ConvWeights struct {
	g        ConvGeom
	outC     int
	fwd, bwd operand   // W and Wᵀ as A operands; src is nil until packed
	taps     *tapTable // g's convTaps for the dW gather, set by PackBwd
}

// tapTable holds one convTaps table. Tables are pooled: nn builds a model's
// conv layers afresh for every sub-model, so a table owned by a layer would
// be a new allocation every device round; from the pool, PackBwd builds it
// in a backing array an earlier Release returned.
type tapTable struct{ off []int }

var tapTables = sync.Pool{New: func() any { return new(tapTable) }}

// PackFwd prepares W (outC × kdim, row-major) for forward convolutions over
// geometry g. Anything previously packed is released first.
func (cw *ConvWeights) PackFwd(w []float32, outC int, g ConvGeom) {
	checkConvOperands("PackFwd", g, outC, w, nil, nil, 0, "")
	cw.fwd = cw.readW(w, outC, g, outC, g.Kdim(), false)
}

// PackBwd prepares Wᵀ for backward convolutions over geometry g.
func (cw *ConvWeights) PackBwd(w []float32, outC int, g ConvGeom) {
	checkConvOperands("PackBwd", g, outC, w, nil, nil, 0, "")
	cw.bwd = cw.readW(w, outC, g, g.Kdim(), outC, true)
	cw.taps = tapTables.Get().(*tapTable)
	cw.taps.off = convTaps(g, cw.taps.off)
}

// readW releases what cw held and returns op(W) (m×k) as an A operand.
func (cw *ConvWeights) readW(w []float32, outC int, g ConvGeom, m, k int, transA bool) operand {
	cw.Release()
	cw.g, cw.outC = g, outC
	return readA(w, m, k, transA)
}

// Release returns the tap table to its pool. Safe on the zero value and
// after a previous Release.
func (cw *ConvWeights) Release() {
	if cw.taps != nil {
		tapTables.Put(cw.taps)
	}
	cw.fwd, cw.bwd, cw.taps = operand{}, operand{}, nil
}

// Conv computes the forward GEMM out = W · im2col(src) without materializing
// the column matrix: the B panels are gathered from the padded image by
// packBConv and swept with W exactly as a packed
// Gemm(false, false, outC, cols, kdim, 1, w, col, 0, out) would. out is fully
// overwritten (beta = 0); the caller adds bias. Bitwise identical to
// ConvGemmRef for every geometry, worker count, and nesting depth.
func (cw *ConvWeights) Conv(src, out []float32) {
	g, outC := cw.g, cw.outC
	kdim, cols := g.Kdim(), g.Cols()
	if cw.fwd.src == nil {
		panic("tensor: ConvWeights.Conv without PackFwd")
	}
	checkConvOperands("Conv", g, outC, nil, src, out, outC*cols, "output")
	convImplicitCount.Inc()
	// One arena block: the B panels, then the padded image they are gathered
	// from.
	bLen := (cols + nr - 1) / nr * nr * kdim
	s := GetScratch(bLen + g.paddedLen())
	pb := packed(s.Data[:bLen], nr, kdim)
	packBConv(padImage(src, g, s.Data[bLen:]), g, pb.src)
	runGemm(&cw.fwd, &pb, out, outC, cols, kdim, 0)
	PutScratch(s)
}

// ConvBack runs the convolution backward for one sample:
//
//	dw += grad · im2col(src)ᵀ   (weight gradient, accumulated)
//	dx  = col2im(Wᵀ · grad)     (input gradient, overwritten)
//
// The weight-gradient GEMM is implicit: its B panels (the transposed column
// matrix) are gathered from the padded image by packBConvT, and beta = 1 with a
// transposed B is kernel mode 1 — the same dot-order summation the reference
// Gemm(false, true, …, 1, dw) used, so dw stays bitwise identical. grad is
// read in place, as that product's A and as the input-gradient product's B,
// which reads Wᵀ as its A — what the reference Gemm(true, false, …) reads.
// The column gradient still materializes, in arena scratch scoped to this
// call, and foldCols folds it (its accumulation order into dx is the bits of
// dx; fusing the fold into the tile sweep would reorder it — see
// docs/PERF.md).
func (cw *ConvWeights) ConvBack(src, grad, dw, dx []float32) {
	g, outC := cw.g, cw.outC
	kdim, cols := g.Kdim(), g.Cols()
	if cw.bwd.src == nil {
		panic("tensor: ConvWeights.ConvBack without PackBwd")
	}
	checkConvOperands("ConvBack", g, outC, nil, src, dw, outC*kdim, "dw")
	if len(grad) < outC*cols {
		panic(fmt.Sprintf("tensor: ConvBack grad too short: len=%d, need outC*cols=%d*%d=%d",
			len(grad), outC, cols, outC*cols))
	}
	img := g.Channels * g.Height * g.Width
	if len(dx) < img {
		panic(fmt.Sprintf("tensor: ConvBack dx too short: len=%d, need %d", len(dx), img))
	}
	convImplicitCount.Inc()

	// One arena block serves both GEMMs — a B region and the padded image —
	// so a sample's backward is a single pool round-trip. grad is read in
	// place by both products. The B region holds the packBConvT panels and
	// is then recycled as the column gradient (nTiles·nr ≥ kdim, and the
	// sweep fully overwrites it with beta = 0 before the fold reads it). The
	// image region is padded once, read by the transposed gather, and then
	// recycled as the padded dx the fold accumulates into.
	bLen := (kdim + nr - 1) / nr * nr * cols
	s := GetScratch(bLen + g.paddedLen())
	pb := packed(s.Data[:bLen], nr, cols)
	pimg := s.Data[bLen:]
	packBConvT(padImage(src, g, pimg), g, cw.taps.off, pb.src)
	ga := readA(grad, outC, cols, false)
	runGemm(&ga, &pb, dw, outC, kdim, cols, 1)

	gb := readB(grad, cols)
	dcol := pb.src[:kdim*cols]
	runGemm(&cw.bwd, &gb, dcol, kdim, cols, outC, 0)
	// Fold into zeros: the padded region when there is a border to absorb
	// the padding taps (the interior is then copied out, overwriting dx),
	// dx itself when there is none.
	acc := dx[:img]
	if g.Pad > 0 {
		acc = pimg
	}
	for i := range acc {
		acc[i] = 0
	}
	foldCols(dcol, g, acc)
	if g.Pad > 0 {
		unpadImage(acc, g, dx)
	}
	PutScratch(s)
}

// ConvGemm computes the convolution forward GEMM out = W · im2col(src) for a
// single call, packing W on the spot. Batch loops should use ConvWeights
// directly so W is packed once.
func ConvGemm(w []float32, outC int, src []float32, g ConvGeom, out []float32) {
	var cw ConvWeights
	cw.PackFwd(w, outC, g)
	cw.Conv(src, out)
	cw.Release()
}

// ConvGemmBack runs the single-call convolution backward (see
// ConvWeights.ConvBack), packing Wᵀ on the spot.
func ConvGemmBack(w []float32, outC int, src []float32, g ConvGeom, grad, dw, dx []float32) {
	var cw ConvWeights
	cw.PackBwd(w, outC, g)
	cw.ConvBack(src, grad, dw, dx)
	cw.Release()
}

// ConvGemmRef is the retained im2col reference forward — materialize the
// column matrix, run the dispatching Gemm — kept verbatim as the
// differential-test oracle and the BenchmarkConvGemmIm2col baseline for the
// implicit path, the way GemmNaive anchors the packed GEMM.
func ConvGemmRef(w []float32, outC int, src []float32, g ConvGeom, out []float32) {
	kdim, cols := g.Kdim(), g.Cols()
	checkConvOperands("ConvGemmRef", g, outC, w, src, out, outC*cols, "output")
	convRefCount.Inc()
	col := GetScratch(kdim * cols)
	Im2Col(src, g.Channels, g.Height, g.Width, g.KH, g.KW, g.Stride, g.Pad, col.Data)
	Gemm(false, false, outC, cols, kdim, 1, w, col.Data, 0, out)
	PutScratch(col)
}

// ConvGemmBackRef is the im2col reference backward: the column matrix is
// rebuilt and both gradient products run through the dispatching Gemm with
// the exact call shapes the pre-implicit conv layer used.
func ConvGemmBackRef(w []float32, outC int, src []float32, g ConvGeom, grad, dw, dx []float32) {
	kdim, cols := g.Kdim(), g.Cols()
	checkConvOperands("ConvGemmBackRef", g, outC, w, src, dw, outC*kdim, "dw")
	convRefCount.Inc()
	col := GetScratch(kdim * cols)
	Im2Col(src, g.Channels, g.Height, g.Width, g.KH, g.KW, g.Stride, g.Pad, col.Data)
	Gemm(false, true, outC, kdim, cols, 1, grad, col.Data, 1, dw)
	dcol := GetScratch(kdim * cols)
	Gemm(true, false, kdim, cols, outC, 1, w, grad, 0, dcol.Data)
	img := g.Channels * g.Height * g.Width
	dx = dx[:img]
	for i := range dx {
		dx[i] = 0
	}
	Col2Im(dcol.Data, g.Channels, g.Height, g.Width, g.KH, g.KW, g.Stride, g.Pad, dx)
	PutScratch(dcol)
	PutScratch(col)
}
