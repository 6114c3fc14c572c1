package tensor

import "fmt"

// Implicit-GEMM convolution. The im2col lowering (conv.go) turns Conv2D into
// C[oc, (oy,ox)] = W[oc, :] · col[:, (oy,ox)] — but the column matrix `col`
// is pure data movement: every element is a pixel of the input image (or a
// padding zero) addressed by (channel, ky, kx, oy, ox). The packed GEMM
// (pack.go) never reads its B operand directly either — it reads the packed
// B panels. So the column matrix exists only to be repacked, and ConvGemm /
// ConvGemmBack delete it: their pack routines walk the (channel, ky, kx,
// oy, ox) coordinate space and gather pixels straight from the image into
// the panel layout, zero-filling padding taps in place.
//
// Bitwise contract: the panels packBConv/packBConvT produce are element-for-
// element identical to packB(im2col(src)) — same layout, same zero padding —
// and the panels then flow through the same runPacked band grid and the same
// full-k ascending-p summation chains. The implicit path is therefore
// bitwise identical to the retained Im2Col + Gemm reference (ConvGemmRef /
// ConvGemmBackRef below), which stays as the differential-test oracle the
// way GemmNaive anchors the packed GEMM. The implicit_test.go suite pins
// this for every stride/pad/kernel shape the experiments use plus fuzzed
// shapes.
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

// checkConvOperands validates operand extents with shape-carrying messages,
// mirroring checkGemmOperands: a short operand must die loudly at the entry
// point, not as an index panic inside a pack routine. Operands a caller does
// not supply at its entry point (the pack-only and gather-only paths) are
// passed as nil and skipped.
func checkConvOperands(fn string, g ConvGeom, outC int, w, src, out []float32, outLen int, outName string) {
	if g.Stride < 1 || g.KH < 1 || g.KW < 1 || g.Pad < 0 {
		panic(fmt.Sprintf("tensor: %s invalid geometry %+v", fn, g))
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

// packBConv packs the virtual column matrix (kdim × cols, never built) into
// nr-column B panels: element (p, j) of the panel layout — exactly where
// packB(transB=false) would have put col[p][j] — is the pixel the im2col row
// p = (channel, ky, kx) and column j = (oy, ox) address, or zero for a
// padding tap. dst must hold ceil(cols/nr)·nr·kdim elements.
func packBConv(src []float32, g ConvGeom, dst []float32) {
	outW := g.OutW()
	cols := g.OutH() * outW
	kdim := g.Kdim()
	height, width, stride := g.Height, g.Width, g.Stride
	// A panel's nr output pixels split into runs sharing one output row oy
	// (at most nr runs; usually one or two). Per run: panel column range,
	// oy·stride−pad, ox·stride−pad of the first column, and — refreshed per
	// (c, ky) — the image row offset, or −1 in vertical padding. Working a
	// whole run at once turns the stride-1 inner gather into a bounds-clamped
	// contiguous copy instead of a per-element branch.
	var segStart, segLen, segOy, segOx0, segRow [nr]int
	for j0 := 0; j0 < cols; j0 += nr {
		w8 := cols - j0
		if w8 > nr {
			w8 = nr
		}
		nseg := 0
		for cc := 0; cc < w8; nseg++ {
			oy := (j0 + cc) / outW
			ox := j0 + cc - oy*outW
			l := outW - ox
			if l > w8-cc {
				l = w8 - cc
			}
			segStart[nseg] = cc
			segLen[nseg] = l
			segOy[nseg] = oy*stride - g.Pad
			segOx0[nseg] = ox*stride - g.Pad
			cc += l
		}
		dstPanel := dst[j0*kdim : j0*kdim+kdim*nr]
		ri := 0
		for c := 0; c < g.Channels; c++ {
			chanBase := c * height * width
			for ky := 0; ky < g.KH; ky++ {
				for s := 0; s < nseg; s++ {
					if sy := segOy[s] + ky; uint(sy) < uint(height) {
						segRow[s] = chanBase + sy*width
					} else {
						segRow[s] = -1
					}
				}
				for kx := 0; kx < g.KW; kx++ {
					dp := dstPanel[ri : ri+nr]
					for s := 0; s < nseg; s++ {
						d := dp[segStart[s] : segStart[s]+segLen[s]]
						ro := segRow[s]
						if ro < 0 {
							for i := range d {
								d[i] = 0
							}
							continue
						}
						sx := segOx0[s] + kx
						if stride == 1 {
							i := 0
							for ; i < len(d) && sx+i < 0; i++ {
								d[i] = 0
							}
							hi := width - sx
							if hi > len(d) {
								hi = len(d)
							}
							if hi > i {
								copy(d[i:hi], src[ro+sx+i:ro+sx+hi])
								i = hi
							}
							for ; i < len(d); i++ {
								d[i] = 0
							}
						} else {
							for i := range d {
								if x := sx + i*stride; uint(x) < uint(width) {
									d[i] = src[ro+x]
								} else {
									d[i] = 0
								}
							}
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

// packBConvT packs the transpose view of the virtual column matrix — op(B) =
// colᵀ (cols × kdim), the B operand of the backward weight-gradient GEMM —
// into nr-column panels, identical to packB(col, transB=true). Panels run
// over the kdim dimension; within a panel column c = im2col row (channel,
// ky, kx), the k steps walk the output pixels in ascending (oy, ox), which
// is a strided Im2Col row write. dst must hold ceil(kdim/nr)·nr·cols
// elements.
func packBConvT(src []float32, g ConvGeom, dst []float32) {
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	kdim := g.Kdim()
	khkw := g.KH * g.KW
	for j0 := 0; j0 < kdim; j0 += nr {
		base := j0 * cols
		w8 := kdim - j0
		if w8 > nr {
			w8 = nr
		}
		for c := 0; c < w8; c++ {
			kd := j0 + c
			ch := kd / khkw
			rem := kd - ch*khkw
			ky := rem / g.KW
			kx := rem - ky*g.KW
			chanBase := ch * g.Height * g.Width
			// Output pixels whose (ky, kx) tap lands inside the image form a
			// contiguous (oy, ox) rectangle; everything outside is a padding
			// zero, so the in-range inner loop is branch-free.
			loY, hiY := convTapRange(outH, g.Height, g.Stride, g.Pad, ky)
			loX, hiX := convTapRange(outW, g.Width, g.Stride, g.Pad, kx)
			i := base + c
			for p := 0; p < loY*outW; p++ {
				dst[i] = 0
				i += nr
			}
			for oy := loY; oy < hiY; oy++ {
				rowBase := chanBase + (oy*g.Stride-g.Pad+ky)*g.Width
				for ox := 0; ox < loX; ox++ {
					dst[i] = 0
					i += nr
				}
				sx := loX*g.Stride - g.Pad + kx
				for ox := loX; ox < hiX; ox++ {
					dst[i] = src[rowBase+sx]
					sx += g.Stride
					i += nr
				}
				for ox := hiX; ox < outW; ox++ {
					dst[i] = 0
					i += nr
				}
			}
			for p := hiY * outW; p < cols; p++ {
				dst[i] = 0
				i += nr
			}
		}
		for c := w8; c < nr; c++ {
			i := base + c
			for p := 0; p < cols; p++ {
				dst[i] = 0
				i += nr
			}
		}
	}
}

// ConvWeights holds the weight matrix prepacked into GEMM panels, so a batch
// loop packs W once instead of once per sample — the panels are read-only
// during the sweep and safe to share across parallel per-sample GEMMs. The
// forward and backward directions need different pack layouts (op(A) = W for
// the forward product, op(A) = Wᵀ for the input-gradient product), so each is
// packed on demand by PackFwd/PackBwd and released with Release; the zero
// value is ready to use and holds no scratch.
type ConvWeights struct {
	g    ConvGeom
	outC int
	fwd  *Scratch // packA(w, outC, kdim, false) panels
	bwd  *Scratch // packA(w, kdim, outC, true) panels
}

// PackFwd packs W (outC × kdim, row-major) for forward convolutions over
// geometry g. Any previously packed panels are released first.
func (cw *ConvWeights) PackFwd(w []float32, outC int, g ConvGeom) {
	cw.Release()
	kdim := g.Kdim()
	checkConvOperands("PackFwd", g, outC, w, nil, nil, 0, "")
	cw.g, cw.outC = g, outC
	mTiles := (outC + mr - 1) / mr
	cw.fwd = GetScratch(mTiles * mr * kdim)
	packA(w, outC, kdim, false, cw.fwd.Data)
}

// PackBwd packs Wᵀ for backward convolutions over geometry g.
func (cw *ConvWeights) PackBwd(w []float32, outC int, g ConvGeom) {
	cw.Release()
	kdim := g.Kdim()
	checkConvOperands("PackBwd", g, outC, w, nil, nil, 0, "")
	cw.g, cw.outC = g, outC
	mTiles := (kdim + mr - 1) / mr
	cw.bwd = GetScratch(mTiles * mr * outC)
	packA(w, kdim, outC, true, cw.bwd.Data)
}

// Release returns the packed panels to the arena. Safe on the zero value and
// after a previous Release.
func (cw *ConvWeights) Release() {
	PutScratch(cw.fwd)
	PutScratch(cw.bwd)
	cw.fwd, cw.bwd = nil, nil
}

// Conv computes the forward GEMM out = W · im2col(src) without materializing
// the column matrix: the B panels are gathered straight from the image by
// packBConv and swept with the prepacked W panels exactly as a packed
// Gemm(false, false, outC, cols, kdim, 1, w, col, 0, out) would. out is fully
// overwritten (beta = 0); the caller adds bias. Bitwise identical to
// ConvGemmRef for every geometry, worker count, and nesting depth.
func (cw *ConvWeights) Conv(src, out []float32) {
	g, outC := cw.g, cw.outC
	kdim, cols := g.Kdim(), g.Cols()
	if cw.fwd == nil {
		panic("tensor: ConvWeights.Conv without PackFwd")
	}
	checkConvOperands("Conv", g, outC, nil, src, out, outC*cols, "output")
	convImplicitCount.Inc()
	nTiles := (cols + nr - 1) / nr
	sb := GetScratch(nTiles * nr * kdim)
	packBConv(src, g, sb.Data)
	runPacked(cw.fwd.Data, sb.Data, out, outC, cols, kdim, 0)
	PutScratch(sb)
}

// ConvBack runs the convolution backward for one sample:
//
//	dw += grad · im2col(src)ᵀ   (weight gradient, accumulated)
//	dx  = col2im(Wᵀ · grad)     (input gradient, overwritten)
//
// The weight-gradient GEMM is implicit: its B panels (the transposed column
// matrix) are gathered from the image by packBConvT, and beta = 1 with a
// transposed B is kernel mode 1 — the same dot-order summation the reference
// Gemm(false, true, …, 1, dw) used, so dw stays bitwise identical. The
// input-gradient GEMM reuses the prepacked Wᵀ panels with grad packed as B —
// panel-for-panel what the reference Gemm(true, false, …) packs — and its
// column gradient still materializes, in arena scratch scoped to this call
// (its accumulation order into dx is the bits of dx; fusing the col2im fold
// into the tile sweep would reorder it — see docs/PERF.md).
func (cw *ConvWeights) ConvBack(src, grad, dw, dx []float32) {
	g, outC := cw.g, cw.outC
	kdim, cols := g.Kdim(), g.Cols()
	if cw.bwd == nil {
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

	// One arena block serves both GEMMs — an A region and a B region — so a
	// sample's backward is a single pool round-trip. The A region is sized
	// for whichever is larger: the packed grad A panels of the dW product or
	// the packed grad B panels of the dcol product (the two layouts differ,
	// so the pack runs twice); the B region holds the packBConvT panels and
	// is then recycled as the column gradient (nTiles·nr ≥ kdim, and
	// runPacked fully overwrites it with beta = 0 before Col2Im reads it).
	mTiles := (outC + mr - 1) / mr
	nTiles := (kdim + nr - 1) / nr
	gTiles := (cols + nr - 1) / nr
	aLen := mTiles * mr * cols
	if gLen := gTiles * nr * outC; gLen > aLen {
		aLen = gLen
	}
	s := GetScratch(aLen + nTiles*nr*cols)
	sa := s.Data[:aLen]
	sb := s.Data[aLen:]
	packA(grad, outC, cols, false, sa)
	packBConvT(src, g, sb)
	runPacked(sa, sb, dw, outC, kdim, cols, 1)

	packB(grad, outC, cols, false, sa)
	dcol := sb[:kdim*cols]
	runPacked(cw.bwd.Data, sa, dcol, kdim, cols, outC, 0)
	dx = dx[:img]
	for i := range dx {
		dx[i] = 0
	}
	Col2Im(dcol, g.Channels, g.Height, g.Width, g.KH, g.KW, g.Stride, g.Pad, dx)
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
