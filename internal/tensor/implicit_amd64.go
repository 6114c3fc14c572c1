//go:build amd64

package tensor

import "fmt"

// The conv data-movement transforms pick their AVX twin (implicit_amd64.s)
// under the flag that picks the GEMM kernel, strictAVX, where the geometry
// allows it: rows of whole four-pixel groups, at stride 1 or 2. The
// portable loops in implicit.go stay the path everywhere else and the oracle
// the twins are pinned against bitwise (TestConvMovesMatchPortable).
// Assembly checks no bounds, so each wrapper checks the twin's reach first.

// twinFits reports whether the gathers' and the fold's twins cover g.
func twinFits(g ConvGeom) bool {
	return strictAVX && g.OutW()%4 == 0 && g.Stride <= 2
}

// packBConvT packs the panels of the transposed column matrix (see
// goPackBConvT). The geometry's twin parameters are worked out once for all
// panels; the reach check reads the last tap, the table's highest.
func packBConvT(img []float32, g ConvGeom, taps []int, dst []float32) {
	if !twinFits(g) {
		goPackBConvT(img, g, taps, dst)
		return
	}
	outH, outW, s := g.OutH(), g.OutW(), g.Stride
	cols, kdim := outH*outW, g.Kdim()
	wp := g.Width + 2*g.Pad
	checkTwinReach("packBConvT", g, taps[len(taps)-1]+(outH-1)*s*wp+(outW-1)*s, len(img),
		(kdim+nr-1)/nr*nr*cols, len(dst))
	for j0 := 0; j0 < kdim; j0 += nr {
		packConvTAVX(&img[0], &dst[j0*cols], (*[nr]int)(taps[j0:]), min(kdim-j0, nr), outH, outW/4, s*(wp-outW), s)
	}
}

// packPanel packs one fixed-width panel of packBConv: the two half-panel
// windows at off0 and off1, for every tap.
func packPanel(img []float32, g ConvGeom, off0, off1 int, panel []float32) {
	if !twinFits(g) {
		goPackPanel(img, g, off0, off1, panel)
		return
	}
	wp := g.Width + 2*g.Pad
	plane := (g.Height + 2*g.Pad) * wp
	last := off1 + (g.Channels-1)*plane + (g.KH-1)*wp + g.KW - 1 + (nr/2-1)*g.Stride
	checkTwinReach("packBConv", g, last, len(img), g.Kdim()*nr, len(panel))
	packConvAVX(&img[off0], &panel[0], off1-off0, g.Channels, g.KH, g.KW, wp, plane, g.Stride)
}

// fold3 is foldCols' three-tap pass for a 3-wide kernel at stride 1 or 2
// (see goFold3).
func fold3(dcol []float32, g ConvGeom, img []float32) {
	if !twinFits(g) {
		goFold3(dcol, g, img)
		return
	}
	outH, outW := g.OutH(), g.OutW()
	wp := g.Width + 2*g.Pad
	plane := (g.Height + 2*g.Pad) * wp
	last := (g.Channels-1)*plane + (g.Stride*(outH-1)+g.KH-1)*wp + g.Stride*outW + 2 - g.Stride
	checkTwinReach("foldCols", g, last, len(img), g.Kdim()*outH*outW, len(dcol))
	if g.Stride == 1 {
		fold3AVX(&dcol[0], &img[0], g.Channels, g.KH, outH, outW/8, outW%8/4, wp, plane)
		return
	}
	fold3s2AVX(&dcol[0], &img[0], g.Channels, g.KH, outH, outW/4, wp, plane)
}

// padRows is padImage's copy for Pad > 0 (see goPadRows).
func padRows(src []float32, g ConvGeom, dst []float32) {
	if !strictAVX || g.Width%4 != 0 {
		goPadRows(src, g, dst)
		return
	}
	checkTwinReach("padImage", g, g.Channels*g.Height*g.Width-1, len(src), g.paddedLen(), len(dst))
	padAVX(&src[0], &dst[0], g.Channels, g.Height, g.Width, g.Pad, g.Width+2*g.Pad)
}

// unpadImage copies the interior of a padded image back out (see
// goUnpadImage).
func unpadImage(img []float32, g ConvGeom, dst []float32) {
	if !strictAVX || g.Width%4 != 0 {
		goUnpadImage(img, g, dst)
		return
	}
	checkTwinReach("unpadImage", g, g.paddedLen()-1, len(img), g.Channels*g.Height*g.Width, len(dst))
	unpadAVX(&img[0], &dst[0], g.Channels, g.Height, g.Width, g.Pad, g.Width+2*g.Pad)
}

//go:noescape
func packConvTAVX(img, dst *float32, off *[nr]int, w8, outH, groups, rowSkip, stride int)

//go:noescape
func packConvAVX(img, dst *float32, half, chans, kh, kw, wp, plane, stride int)

//go:noescape
func fold3AVX(dcol, img *float32, chans, kh, outH, n8, n4, wp, plane int)

//go:noescape
func fold3s2AVX(dcol, img *float32, chans, kh, outH, groups, wp, plane int)

//go:noescape
func padAVX(src, dst *float32, chans, h, w, pad, wp int)

//go:noescape
func unpadAVX(img, dst *float32, chans, h, w, pad, wp int)

// checkTwinReach panics, in checkConvOperands' style, unless a twin's highest
// image element last lies inside img (imgLen elements) and its other operand
// holds the need elements the twin walks.
func checkTwinReach(fn string, g ConvGeom, last, imgLen, need, have int) {
	if last >= imgLen {
		panic(fmt.Sprintf("tensor: %s AVX twin would read element %d of a padded image of %d for %+v",
			fn, last, imgLen, g))
	}
	if need > have {
		panic(fmt.Sprintf("tensor: %s AVX twin operand too short: len=%d, need %d for %+v", fn, have, need, g))
	}
}
