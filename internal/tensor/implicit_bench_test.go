package tensor

import (
	"math/rand"
	"testing"
)

// Implicit-vs-im2col benchmark pairs. The first two are the shapes bench/
// probes as tensor.conv_fwdbwd_ms.*: c16x32_12x12 is one sample of the Fig-9
// training conv (16→32 channels, 12×12, 3×3 s1 p1); c64x64_16x16 is the
// 64-channel 16×16 trunk conv (a 64×256×576 GEMM). The rest are the
// quick-scale image10-resnet shapes sim_cnn_sync and offline_cloud spend
// their time in (stem, the two convs of a stage-1 module, the strided and
// the 4×4 conv of a stage-2 module), one width that is not a multiple of 4
// (9×9: the general gather loop) and the census of one sim_cnn_sync run —
// stride-1 8×8 convs into and out of the narrow module widths, the 4×4 conv
// of a stage-2 module, its strided conv and the 1×1 stride-2 bypass, which
// together carry most of that workload's conv time. These are the rows of
// docs/PERF.md's per-shape tables.

func convBenchOperands(g ConvGeom, outC int) (w, src, out, grad, dw, dx []float32) {
	rng := rand.New(rand.NewSource(1))
	w = make([]float32, outC*g.Kdim())
	src = make([]float32, g.Channels*g.Height*g.Width)
	out = make([]float32, outC*g.Cols())
	grad = make([]float32, outC*g.Cols())
	dw = make([]float32, outC*g.Kdim())
	dx = make([]float32, len(src))
	fillRand(rng, w)
	fillRand(rng, src)
	fillRand(rng, grad)
	return
}

var convBenchGeoms = []struct {
	name string
	g    ConvGeom
	outC int
}{
	{"c16x32_12x12", ConvGeom{Channels: 16, Height: 12, Width: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}, 32},
	{"c64x64_16x16", ConvGeom{Channels: 64, Height: 16, Width: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, 64},
	{"c3x16_8x8", ConvGeom{Channels: 3, Height: 8, Width: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 16},
	{"c16x12_8x8", ConvGeom{Channels: 16, Height: 8, Width: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 12},
	{"c12x24_8x8", ConvGeom{Channels: 12, Height: 8, Width: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 24},
	{"c24x16_8x8_s2", ConvGeom{Channels: 24, Height: 8, Width: 8, KH: 3, KW: 3, Stride: 2, Pad: 1}, 16},
	{"c16x32_9x9", ConvGeom{Channels: 16, Height: 9, Width: 9, KH: 3, KW: 3, Stride: 1, Pad: 1}, 32},
	{"c16x32_4x4", ConvGeom{Channels: 16, Height: 4, Width: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, 32},
	{"c16x9_8x8", ConvGeom{Channels: 16, Height: 8, Width: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 9},
	{"c9x24_8x8", ConvGeom{Channels: 9, Height: 8, Width: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 24},
	{"c14x32_4x4", ConvGeom{Channels: 14, Height: 4, Width: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, 32},
	{"c24x14_8x8_s2", ConvGeom{Channels: 24, Height: 8, Width: 8, KH: 3, KW: 3, Stride: 2, Pad: 1}, 14},
	{"c24x32_8x8_k1_s2", ConvGeom{Channels: 24, Height: 8, Width: 8, KH: 1, KW: 1, Stride: 2, Pad: 0}, 32},
}

func BenchmarkConvGemmImplicit(b *testing.B) {
	for _, bc := range convBenchGeoms {
		b.Run(bc.name, func(b *testing.B) {
			w, src, out, _, _, _ := convBenchOperands(bc.g, bc.outC)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ConvGemm(w, bc.outC, src, bc.g, out)
			}
		})
	}
}

func BenchmarkConvGemmIm2col(b *testing.B) {
	for _, bc := range convBenchGeoms {
		b.Run(bc.name, func(b *testing.B) {
			w, src, out, _, _, _ := convBenchOperands(bc.g, bc.outC)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ConvGemmRef(w, bc.outC, src, bc.g, out)
			}
		})
	}
}

func BenchmarkConvGemmBackImplicit(b *testing.B) {
	for _, bc := range convBenchGeoms {
		b.Run(bc.name, func(b *testing.B) {
			w, src, _, grad, dw, dx := convBenchOperands(bc.g, bc.outC)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ConvGemmBack(w, bc.outC, src, bc.g, grad, dw, dx)
			}
		})
	}
}

func BenchmarkConvGemmBackIm2col(b *testing.B) {
	for _, bc := range convBenchGeoms {
		b.Run(bc.name, func(b *testing.B) {
			w, src, _, grad, dw, dx := convBenchOperands(bc.g, bc.outC)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ConvGemmBackRef(w, bc.outC, src, bc.g, grad, dw, dx)
			}
		})
	}
}
