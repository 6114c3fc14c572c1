package nn

import (
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// TestConv1x1FastPathBitwise pins the pointwise fast path against the im2col
// oracle: for 1×1 stride-1 unpadded convolutions the layer skips the implicit
// gather and runs plain GEMMs on the image data, and the results — forward
// output, weight/bias gradients, input gradient — must be bitwise identical
// to the column-matrix path (im2col is the identity layout there, and col2im
// scatters exactly one contribution per pixel).
func TestConv1x1FastPathBitwise(t *testing.T) {
	rng := tensor.NewRNG(17)
	c := NewConv2D(rng, 16, 32, 1, 1, 0)
	if !c.pointwise() {
		t.Fatal("1×1 stride-1 pad-0 conv not detected as pointwise")
	}
	batch, h, w := 4, 12, 12
	x := tensor.New(batch, 16, h, w)
	g := tensor.New(batch, 32, h, w)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(g, 0, 1)

	y := c.Forward(x, true)
	dx := c.Backward(g)

	geom := tensor.ConvGeom{Channels: 16, Height: h, Width: w, KH: 1, KW: 1, Stride: 1, Pad: 0}
	cols := h * w
	inStride, outStride := 16*cols, 32*cols

	// The layer sums each half of the batch into its own partial and adds
	// the halves into the zeroed gradient in order; the oracle does the same.
	var partDW, partDB [2][]float32
	for h := range partDW {
		partDW[h] = make([]float32, len(c.Weight.G.Data))
		partDB[h] = make([]float32, len(c.Bias.G.Data))
	}
	for b := 0; b < batch; b++ {
		h := 2 * b / batch
		wantDW, wantDB := partDW[h], partDB[h]
		xb := x.Data[b*inStride : (b+1)*inStride]
		gb := g.Data[b*outStride : (b+1)*outStride]

		wantY := make([]float32, outStride)
		tensor.ConvGemmRef(c.Weight.W.Data, 32, xb, geom, wantY)
		for oc := 0; oc < 32; oc++ {
			bias := c.Bias.W.Data[oc]
			for i := 0; i < cols; i++ {
				wantY[oc*cols+i] += bias
			}
		}
		for i := range wantY {
			if got := y.Data[b*outStride+i]; got != wantY[i] {
				t.Fatalf("forward sample %d: y[%d]=%v, im2col ref %v", b, i, got, wantY[i])
			}
		}

		wantDX := make([]float32, inStride)
		tensor.ConvGemmBackRef(c.Weight.W.Data, 32, xb, geom, gb, wantDW, wantDX)
		for i := range wantDX {
			if got := dx.Data[b*inStride+i]; got != wantDX[i] {
				t.Fatalf("backward sample %d: dx[%d]=%v, im2col ref %v", b, i, got, wantDX[i])
			}
		}
		for oc := 0; oc < 32; oc++ {
			var sum float32
			for _, v := range gb[oc*cols : (oc+1)*cols] {
				sum += v
			}
			wantDB[oc] += sum
		}
	}
	wantDW := make([]float32, len(c.Weight.G.Data))
	wantDB := make([]float32, len(c.Bias.G.Data))
	for i := range wantDW {
		wantDW[i] = partDW[0][i] + partDW[1][i]
	}
	for i := range wantDB {
		wantDB[i] = partDB[0][i] + partDB[1][i]
	}
	for i := range wantDW {
		if c.Weight.G.Data[i] != wantDW[i] {
			t.Fatalf("dw[%d]=%v, im2col ref %v", i, c.Weight.G.Data[i], wantDW[i])
		}
	}
	for i := range wantDB {
		if c.Bias.G.Data[i] != wantDB[i] {
			t.Fatalf("db[%d]=%v, ref %v", i, c.Bias.G.Data[i], wantDB[i])
		}
	}
}

// TestConv1x1ZeroAllocSteadyState is the 0-allocs pin for the pointwise fast
// path, same discipline as TestConvZeroAllocSteadyState.
func TestConv1x1ZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; alloc counts are meaningless under -race")
	}
	rng := tensor.NewRNG(18)
	c := NewConv2D(rng, 16, 32, 1, 1, 0)
	x := tensor.New(8, 16, 12, 12)
	g := tensor.New(8, 32, 12, 12)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(g, 0, 1)
	step := func() {
		c.Forward(x, true)
		c.Backward(g)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	runtime.GC()
	var allocs float64
	for attempt := 0; attempt < 5; attempt++ {
		if allocs = testing.AllocsPerRun(10, step); allocs == 0 {
			break
		}
	}
	if allocs != 0 {
		t.Errorf("1×1 Conv2D forward+backward: %v allocs/op in steady state, want 0", allocs)
	}
}
