//go:build !amd64

package tensor

// The conv data-movement transforms are the portable loops of implicit.go
// off amd64, where there is no AVX twin to select.

func packBConvT(img []float32, g ConvGeom, taps []int, dst []float32) {
	goPackBConvT(img, g, taps, dst)
}

func packPanel(img []float32, g ConvGeom, off0, off1 int, panel []float32) {
	goPackPanel(img, g, off0, off1, panel)
}

func fold3(dcol []float32, g ConvGeom, img []float32) { goFold3(dcol, g, img) }

func padRows(src []float32, g ConvGeom, dst []float32) { goPadRows(src, g, dst) }

func unpadImage(img []float32, g ConvGeom, dst []float32) { goUnpadImage(img, g, dst) }
