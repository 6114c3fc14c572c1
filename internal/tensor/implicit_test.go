package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// convCase pins the implicit-GEMM forward and backward against the retained
// im2col oracles, bitwise, for one geometry. dw starts from shared random
// contents so the beta=1 accumulation ordering is covered, not just the
// product.
func convCase(t *testing.T, rng *rand.Rand, outC int, g ConvGeom) {
	t.Helper()
	if g.OutH() < 1 || g.OutW() < 1 {
		t.Fatalf("degenerate case: %+v has empty output", g)
	}
	img := g.Channels * g.Height * g.Width
	kdim, cols := g.Kdim(), g.Cols()

	w := make([]float32, outC*kdim)
	src := make([]float32, img)
	grad := make([]float32, outC*cols)
	dwBase := make([]float32, outC*kdim)
	fillRand(rng, w)
	fillRand(rng, src)
	fillRand(rng, grad)
	fillRand(rng, dwBase)

	outRef := make([]float32, outC*cols)
	outImp := make([]float32, outC*cols)
	ConvGemmRef(w, outC, src, g, outRef)
	ConvGemm(w, outC, src, g, outImp)
	for i := range outRef {
		if outRef[i] != outImp[i] {
			t.Fatalf("ConvGemm outC=%d %+v: out[%d]=%v, im2col ref %v", outC, g, i, outImp[i], outRef[i])
		}
	}

	dwRef := append([]float32(nil), dwBase...)
	dwImp := append([]float32(nil), dwBase...)
	dxRef := make([]float32, img)
	dxImp := make([]float32, img)
	ConvGemmBackRef(w, outC, src, g, grad, dwRef, dxRef)
	ConvGemmBack(w, outC, src, g, grad, dwImp, dxImp)
	for i := range dwRef {
		if dwRef[i] != dwImp[i] {
			t.Fatalf("ConvGemmBack outC=%d %+v: dw[%d]=%v, im2col ref %v", outC, g, i, dwImp[i], dwRef[i])
		}
	}
	for i := range dxRef {
		if dxRef[i] != dxImp[i] {
			t.Fatalf("ConvGemmBack outC=%d %+v: dx[%d]=%v, im2col ref %v", outC, g, i, dxImp[i], dxRef[i])
		}
	}
}

// convShape is one row of convExperimentCases.
type convShape struct {
	inC, outC, h, w, kh, kw, stride, pad int
}

func (c convShape) geom() ConvGeom {
	return ConvGeom{
		Channels: c.inC, Height: c.h, Width: c.w,
		KH: c.kh, KW: c.kw, Stride: c.stride, Pad: c.pad,
	}
}

// convExperimentCases is every (kernel, stride, pad) combination the model
// zoo instantiates (models.go, modular/builders.go) at the spatial sizes the
// experiments run, the bench shapes, and one row per boundary of the gather
// and fold paths.
var convExperimentCases = []convShape{
	// 3×3 stride-1 pad-1 trunk convs.
	{3, 16, 12, 12, 3, 3, 1, 1},
	{16, 32, 12, 12, 3, 3, 1, 1},
	{16, 16, 16, 16, 3, 3, 1, 1},
	{8, 16, 8, 8, 3, 3, 1, 1},
	// 3×3 stride-2 pad-1 downsampling convs.
	{16, 32, 12, 12, 3, 3, 2, 1},
	{32, 64, 6, 6, 3, 3, 2, 1},
	// 1×1 projections (stride 1 and the stride-2 shortcut).
	{16, 32, 12, 12, 1, 1, 1, 0},
	{32, 64, 12, 12, 1, 1, 2, 0},
	// Bench shape: outC=64, kdim=576=64·3·3, cols=256=16·16.
	{64, 64, 16, 16, 3, 3, 1, 1},
	// Quick-scale image10-resnet, where sim_cnn_sync and offline_cloud spend
	// their time (fed/tasks.go: stem 16, stages 24 s1 and 32 s2, module
	// widths 6..15 and 8..22): stem, the two convs of a stage-1 module at
	// 8×8, the strided and the 4×4 conv of a stage-2 module.
	{3, 16, 8, 8, 3, 3, 1, 1},
	{16, 6, 8, 8, 3, 3, 1, 1},
	{16, 15, 8, 8, 3, 3, 1, 1},
	{6, 24, 8, 8, 3, 3, 1, 1},
	{15, 24, 8, 8, 3, 3, 1, 1},
	{24, 8, 8, 8, 3, 3, 2, 1},
	{24, 22, 8, 8, 3, 3, 2, 1},
	{8, 32, 4, 4, 3, 3, 1, 1},
	{22, 32, 4, 4, 3, 3, 1, 1},
	// Quick-scale image100-vgg (loopback_rpc's set-up): both stages stride 2.
	{16, 10, 8, 8, 3, 3, 2, 1},
	{24, 17, 4, 4, 3, 3, 2, 1},
	{17, 40, 2, 2, 3, 3, 1, 1},
	// Path boundaries. Stride-1 output widths either side of the fixed-width
	// panels (7, 9; 4, 8 and 16 are above), each with a last kdim panel of
	// fewer than nr columns (kdim = 45).
	{5, 7, 7, 7, 3, 3, 1, 1},
	{5, 7, 9, 9, 3, 3, 1, 1},
	// outW = 4 with an odd row count: the last panel holds a single row.
	{4, 5, 5, 4, 3, 3, 1, 1},
	// The fold's three-tap pass needs two output columns; one column, a
	// 2-wide and a 5-wide kernel at stride 1 take the tap-by-tap loop.
	{2, 3, 4, 1, 3, 3, 1, 1},
	{3, 4, 6, 6, 2, 2, 1, 1},
	{2, 3, 8, 8, 5, 5, 1, 2},
	{3, 5, 6, 2, 3, 3, 1, 1},
	// pad == 0 (the gathers read the image itself, the fold writes dx
	// directly) at outW = 8, outW = 4 and a general width, and at stride 2.
	{4, 9, 10, 10, 3, 3, 1, 0},
	{2, 3, 6, 6, 3, 3, 1, 0},
	{3, 4, 9, 7, 3, 3, 1, 0},
	{3, 4, 9, 9, 3, 3, 2, 0},
	// pad ≥ kernel (whole windows inside the border) at outW = 8, outW = 9
	// and, at stride 2, outW = 4.
	{2, 3, 3, 3, 2, 2, 1, 3},
	{2, 5, 6, 6, 2, 2, 1, 2},
	{3, 4, 4, 4, 3, 3, 2, 3},
}

// TestConvGemmExperimentShapes pins the implicit path against the im2col
// oracle at every shape of convExperimentCases.
func TestConvGemmExperimentShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range convExperimentCases {
		convCase(t, rng, c.outC, c.geom())
	}
}

// TestConvGemmFuzzShapes sweeps randomized geometries — rectangular images
// and kernels, strides 1..3, pads 0..3 (including pad ≥ kernel, all-padding
// edge columns, and single-pixel outputs) — against the im2col oracle.
func TestConvGemmFuzzShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	iters := 60
	if testing.Short() {
		iters = 12
	}
	for it := 0; it < iters; it++ {
		g := ConvGeom{
			Channels: 1 + rng.Intn(9),
			Height:   1 + rng.Intn(14),
			Width:    1 + rng.Intn(14),
			KH:       1 + rng.Intn(5),
			KW:       1 + rng.Intn(5),
			Stride:   1 + rng.Intn(3),
			Pad:      rng.Intn(4),
		}
		if !g.fits() {
			continue // empty output
		}
		outC := 1 + rng.Intn(17)
		t.Run(fmt.Sprintf("it%d_c%d_%dx%d_k%dx%d_s%d_p%d_oc%d",
			it, g.Channels, g.Height, g.Width, g.KH, g.KW, g.Stride, g.Pad, outC),
			func(t *testing.T) { convCase(t, rng, outC, g) })
	}
}

// FuzzConvGemm lets the fuzzer pick the geometry, the output channel count
// and the data seed, and holds forward, dw and dx to the im2col oracles
// bitwise under each kernel level the host has (forEachKernel): the portable
// paths, the 256-bit AVX kernel and data-movement twins, and the 512-bit
// kernel beside them. Seeded
// from convExperimentCases; geometries whose kernel does not fit the padded
// image are the entry points' to reject (TestConvGemmOperandChecks) and are
// skipped here by the same predicate.
func FuzzConvGemm(f *testing.F) {
	for i, c := range convExperimentCases {
		f.Add(uint8(c.inC), uint8(c.outC), uint8(c.h), uint8(c.w), uint8(c.kh), uint8(c.kw), uint8(c.stride), uint8(c.pad), int64(i))
	}
	f.Fuzz(func(t *testing.T, inC, outC, h, w, kh, kw, stride, pad uint8, seed int64) {
		// Fold every byte into the swept range (the identity on the seeds):
		// 1..64 channels, 1..20 pixels, 1..5 taps, stride 1..3, pad 0..5.
		in := func(v uint8, n int) int { return 1 + int(v-1)%n }
		g := ConvGeom{
			Channels: in(inC, 64), Height: in(h, 20), Width: in(w, 20),
			KH: in(kh, 5), KW: in(kw, 5), Stride: in(stride, 3), Pad: int(pad) % 6,
		}
		if !g.fits() {
			t.Skip("kernel does not fit the padded image")
		}
		forEachKernel(t, func(string) {
			convCase(t, rand.New(rand.NewSource(seed)), in(outC, 64), g)
		})
	})
}

// TestConvGemmParallelInvariance pins that the implicit path's band-grid
// fan-out does not change bits: the per-element summation chains are complete
// within a tile, so serial and parallel sweeps must agree exactly.
func TestConvGemmParallelInvariance(t *testing.T) {
	g := ConvGeom{Channels: 16, Height: 16, Width: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	outC := 32
	rng := rand.New(rand.NewSource(11))
	w := make([]float32, outC*g.Kdim())
	src := make([]float32, g.Channels*g.Height*g.Width)
	grad := make([]float32, outC*g.Cols())
	fillRand(rng, w)
	fillRand(rng, src)
	fillRand(rng, grad)

	saved := Parallelism
	defer func() { Parallelism = saved }()

	Parallelism = 1
	outSerial := make([]float32, outC*g.Cols())
	dwSerial := make([]float32, outC*g.Kdim())
	dxSerial := make([]float32, len(src))
	ConvGemm(w, outC, src, g, outSerial)
	ConvGemmBack(w, outC, src, g, grad, dwSerial, dxSerial)

	for _, par := range []int{2, 3, 4, 8} {
		Parallelism = par
		out := make([]float32, outC*g.Cols())
		dw := make([]float32, outC*g.Kdim())
		dx := make([]float32, len(src))
		ConvGemm(w, outC, src, g, out)
		ConvGemmBack(w, outC, src, g, grad, dw, dx)
		for i := range outSerial {
			if out[i] != outSerial[i] {
				t.Fatalf("Parallelism=%d: out[%d]=%v, serial %v", par, i, out[i], outSerial[i])
			}
		}
		for i := range dwSerial {
			if dw[i] != dwSerial[i] {
				t.Fatalf("Parallelism=%d: dw[%d]=%v, serial %v", par, i, dw[i], dwSerial[i])
			}
		}
		for i := range dxSerial {
			if dx[i] != dxSerial[i] {
				t.Fatalf("Parallelism=%d: dx[%d]=%v, serial %v", par, i, dx[i], dxSerial[i])
			}
		}
	}
}

// TestConvGemmImplicitZeroAlloc pins the implicit path's steady state at zero
// heap allocations at the Fig-9 training conv shape. The path gathers image
// pixels straight into arena-backed panels; any allocation here means a panel
// escaped the arena, the regression the deleted column-matrix buffer used to
// mask.
func TestConvGemmImplicitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; alloc counts are meaningless under -race")
	}
	bc := convBenchGeoms[0] // c16x32_12x12
	w, src, out, grad, dw, dx := convBenchOperands(bc.g, bc.outC)
	step := func() {
		ConvGemm(w, bc.outC, src, bc.g, out)
		ConvGemmBack(w, bc.outC, src, bc.g, grad, dw, dx)
	}
	step() // first use grows the arena
	// A GC cycle finishing mid-measurement empties the arena's sync.Pools and
	// the refill would be charged to the steady state; start from a finished
	// cycle and accept the first clean measurement. A real per-op allocation
	// fails every attempt.
	runtime.GC()
	var allocs float64
	for attempt := 0; attempt < 5; attempt++ {
		if allocs = testing.AllocsPerRun(100, step); allocs == 0 {
			break
		}
	}
	if allocs != 0 {
		t.Errorf("ConvGemm+ConvGemmBack at %s: %v allocs/op in steady state, want 0", bc.name, allocs)
	}
}

// TestConvGemmScratchAccounting pins the implicit path's arena use: forward
// and backward return every byte they acquire, and each peaks at exactly the
// one block its geometry calls for — the arena class of the block holding
// the B panels and the padded image. W and grad are read in place, partial
// tiles included, so neither packs a tile of its own. A column matrix, or
// any other block, would show up here. The im2col reference must not leak
// either.
func TestConvGemmScratchAccounting(t *testing.T) {
	g := ConvGeom{Channels: 16, Height: 16, Width: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	outC := 32
	rng := rand.New(rand.NewSource(5))
	w := make([]float32, outC*g.Kdim())
	src := make([]float32, g.Channels*g.Height*g.Width)
	out := make([]float32, outC*g.Cols())
	dw := make([]float32, len(w))
	dx := make([]float32, len(src))
	fillRand(rng, w)
	fillRand(rng, src)
	fillRand(rng, out)

	class := func(n int) int64 { return 4 * int64(kernelScratch.classCap(kernelScratch.classOf(n))) }
	kdim, cols := g.Kdim(), g.Cols() // 144 (= 24·mr = 18·nr), 256 (= 32·nr)
	padded := g.Channels * (g.Height + 2) * (g.Width + 2)
	// Forward: the B panels cover cols; backward: they cover kdim. outC %
	// mr = 2 leaves W, Wᵀ's neighbour grad and the dw product with partial
	// row tiles, all read in place.
	fwdWant := class(cols*kdim + padded)
	bwdWant := class(kdim*cols + padded)

	live := ScratchLiveBytes()
	ResetScratchPeak()
	ConvGemm(w, outC, src, g, out)
	if got := ScratchPeakBytes() - live; got != fwdWant {
		t.Errorf("ConvGemm peak scratch %d B, want %d B", got, fwdWant)
	}
	if got := ScratchLiveBytes(); got != live {
		t.Errorf("ConvGemm leaked %d live scratch bytes", got-live)
	}

	ResetScratchPeak()
	ConvGemmBack(w, outC, src, g, out, dw, dx)
	if got := ScratchPeakBytes() - live; got != bwdWant {
		t.Errorf("ConvGemmBack peak scratch %d B, want %d B", got, bwdWant)
	}
	if got := ScratchLiveBytes(); got != live {
		t.Errorf("ConvGemmBack leaked %d live scratch bytes", got-live)
	}

	ConvGemmRef(w, outC, src, g, out)
	if got := ScratchLiveBytes(); got != live {
		t.Errorf("ConvGemmRef leaked %d live scratch bytes", got-live)
	}
}

// TestConvGemmOperandChecks pins the shape-carrying panics at the entry
// points.
func TestConvGemmOperandChecks(t *testing.T) {
	g := ConvGeom{Channels: 2, Height: 4, Width: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	ok := make([]float32, 1024)
	short := make([]float32, 3)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("short image", func() { ConvGemm(ok, 4, short, g, ok) })
	mustPanic("short weight", func() { ConvGemm(short, 4, ok, g, ok) })
	mustPanic("short output", func() { ConvGemm(ok, 4, ok, g, short) })
	mustPanic("short grad", func() { ConvGemmBack(ok, 4, ok, g, short, ok, ok) })
	mustPanic("short dx", func() { ConvGemmBack(ok, 4, ok, g, ok, ok, short) })
	mustPanic("bad stride", func() {
		bad := g
		bad.Stride = 0
		ConvGemm(ok, 4, ok, bad, ok)
	})
	// A kernel that does not fit the padded image: OutH() is −1 for the
	// first, and for the second truncating division makes it 1 although the
	// only window hangs over the bottom edge. Every entry point rejects both.
	for _, bad := range []ConvGeom{
		{Channels: 2, Height: 1, Width: 4, KH: 3, KW: 3, Stride: 1, Pad: 0},
		{Channels: 2, Height: 2, Width: 4, KH: 3, KW: 3, Stride: 2, Pad: 0},
		{Channels: 2, Height: 4, Width: 2, KH: 3, KW: 5, Stride: 2, Pad: 1},
	} {
		bad := bad
		name := fmt.Sprintf("kernel does not fit %+v: ", bad)
		var cw ConvWeights
		mustPanic(name+"ConvGemm", func() { ConvGemm(ok, 4, ok, bad, ok) })
		mustPanic(name+"ConvGemmBack", func() { ConvGemmBack(ok, 4, ok, bad, ok, ok, ok) })
		mustPanic(name+"ConvGemmRef", func() { ConvGemmRef(ok, 4, ok, bad, ok) })
		mustPanic(name+"ConvGemmBackRef", func() { ConvGemmBackRef(ok, 4, ok, bad, ok, ok, ok) })
		mustPanic(name+"PackFwd", func() { cw.PackFwd(ok, 4, bad) })
		mustPanic(name+"PackBwd", func() { cw.PackBwd(ok, 4, bad) })
		mustPanic(name+"ConvOutSize", func() {
			ConvOutSize(bad.Height, bad.KH, bad.Stride, bad.Pad)
			ConvOutSize(bad.Width, bad.KW, bad.Stride, bad.Pad)
		})
	}
}
