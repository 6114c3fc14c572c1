package nn

import (
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// TestDenseZeroAllocSteadyState pins the arena payoff: once buffers are
// warm, a Dense forward+backward pair performs zero heap allocations.
func TestDenseZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; alloc counts are meaningless under -race")
	}
	rng := tensor.NewRNG(3)
	d := NewDense(rng, 64, 32)
	x := tensor.New(32, 64)
	g := tensor.New(32, 32)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(g, 0, 1)
	step := func() {
		d.Forward(x, true)
		d.Backward(g)
	}
	for i := 0; i < 3; i++ {
		step() // warm the arena and the layer buffers
	}
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Errorf("Dense forward+backward: %v allocs/op in steady state, want 0", allocs)
	}
}

// TestReLUZeroAllocSteadyState: ReLU reuses its output and input-gradient
// tensors like every other layer, for any input rank, and follows the input
// when the shape changes.
func TestReLUZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; alloc counts are meaningless under -race")
	}
	rng := tensor.NewRNG(7)
	for _, shape := range [][]int{{32, 64}, {4, 8, 6, 6}} {
		r := NewReLU()
		x := tensor.New(shape...)
		g := tensor.New(shape...)
		rng.FillNormal(x, 0, 1)
		rng.FillNormal(g, 0, 1)
		step := func() {
			r.Forward(x, true)
			r.Backward(g)
		}
		step()
		if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
			t.Errorf("ReLU forward+backward on %v: %v allocs/op in steady state, want 0", shape, allocs)
		}
		y, dx := r.Forward(x, true), r.Backward(g)
		for i, v := range x.Data {
			wantY, wantDx := float32(0), float32(0)
			if v > 0 {
				wantY, wantDx = v, g.Data[i]
			}
			if y.Data[i] != wantY || dx.Data[i] != wantDx {
				t.Fatalf("ReLU on %v: element %d (x=%v) gave y=%v dx=%v, want %v %v", shape, i, v, y.Data[i], dx.Data[i], wantY, wantDx)
			}
		}
		if &x.Data[0] == &y.Data[0] || &g.Data[0] == &dx.Data[0] {
			t.Fatalf("ReLU on %v wrote through its input", shape)
		}
		small := tensor.New(shape[0]/2, shape[1])
		if got := r.Forward(small, true); !got.SameShape(small) {
			t.Fatalf("ReLU kept shape %v for an input of shape %v", got.Shape(), small.Shape())
		}
	}
}

// TestConvZeroAllocSteadyState is the same invariant for Conv2D, whose seed
// implementation allocated dw/db/dcol on every backward chunk and an output
// tensor every forward.
func TestConvZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; alloc counts are meaningless under -race")
	}
	rng := tensor.NewRNG(4)
	c := NewConv2D(rng, 8, 16, 3, 1, 1)
	x := tensor.New(8, 8, 16, 16)
	g := tensor.New(8, 16, 16, 16)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(g, 0, 1)
	step := func() {
		c.Forward(x, true)
		c.Backward(g)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	// Finish any in-flight GC cycle first: a collection completing
	// mid-measurement resets sync.Pool internals, and the arena rebuilding
	// its per-P structure would be charged to the steady state under test.
	runtime.GC()
	// The arena's worst-case concurrent working set per size class depends on
	// how the parallel chunks happen to interleave, so a single measurement
	// can still catch the pools adapting (a one-time Get miss plus chain
	// growth). Convergence is monotone — once the pools have seen the peak,
	// every later run is allocation-free — so retry a few times and demand a
	// clean run; a real per-op allocation fails every attempt.
	var allocs float64
	for attempt := 0; attempt < 5; attempt++ {
		if allocs = testing.AllocsPerRun(10, step); allocs == 0 {
			break
		}
	}
	if allocs != 0 {
		t.Errorf("Conv2D forward+backward: %v allocs/op in steady state, want 0", allocs)
	}
}

// TestConvRetainsNoScratch supersedes the old shrink-after-small-batch
// regression test: the implicit-GEMM conv never materializes the column
// matrix, so instead of asserting the retained im2col buffer tracks the live
// batch, we assert there is nothing retained at all — every arena byte a
// training step acquires is returned before the step finishes, for training
// and eval forwards alike.
func TestConvRetainsNoScratch(t *testing.T) {
	rng := tensor.NewRNG(5)
	c := NewConv2D(rng, 4, 8, 3, 1, 1)
	big := tensor.New(32, 4, 12, 12)
	g := tensor.New(32, 8, 12, 12)
	rng.FillNormal(big, 0, 1)
	rng.FillNormal(g, 0, 1)

	before := tensor.ScratchLiveBytes()
	c.Forward(big, true)
	if live := tensor.ScratchLiveBytes(); live != before {
		t.Errorf("training forward left %d live scratch bytes, want 0", live-before)
	}
	c.Backward(g)
	if live := tensor.ScratchLiveBytes(); live != before {
		t.Errorf("backward left %d live scratch bytes, want 0", live-before)
	}
	c.Forward(big, false)
	if live := tensor.ScratchLiveBytes(); live != before {
		t.Errorf("eval forward left %d live scratch bytes, want 0", live-before)
	}
}

// TestConvRepeatedBackward covers the deep-supervision pattern (AdaptiveNet
// backprops a shared trunk once per exit): the im2col matrices from one
// training forward must stay valid across multiple Backward calls.
func TestConvRepeatedBackward(t *testing.T) {
	rng := tensor.NewRNG(6)
	c := NewConv2D(rng, 3, 6, 3, 1, 1)
	x := tensor.New(4, 3, 8, 8)
	g := tensor.New(4, 6, 8, 8)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(g, 0, 1)
	c.Forward(x, true)
	dx1 := c.Backward(g).Clone()
	dx2 := c.Backward(g)
	for i := range dx1.Data {
		if dx1.Data[i] != dx2.Data[i] {
			t.Fatalf("repeated Backward diverges at %d", i)
		}
	}
}
