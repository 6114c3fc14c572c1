package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestDenseForwardKnownValues(t *testing.T) {
	d := &Dense{In: 2, Out: 2, Weight: NewParam("w", 2, 2), Bias: NewParam("b", 2)}
	copy(d.Weight.W.Data, []float32{1, 2, 3, 4})
	copy(d.Bias.W.Data, []float32{0.5, -0.5})
	x := tensor.FromSlice([]float32{1, 1}, 1, 2)
	y := d.Forward(x, false)
	if y.Data[0] != 3.5 || y.Data[1] != 6.5 {
		t.Fatalf("Dense forward = %v", y.Data)
	}
}

func TestReLUForward(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice([]float32{-1, 0, 2}, 1, 3)
	y := r.Forward(x, true)
	if y.Data[0] != 0 || y.Data[1] != 0 || y.Data[2] != 2 {
		t.Fatalf("ReLU = %v", y.Data)
	}
}

func TestBatchNormNormalizesTraining(t *testing.T) {
	bn := NewBatchNorm(2)
	rng := tensor.NewRNG(2)
	x := tensor.New(64, 2)
	rng.FillNormal(x, 5, 3)
	y := bn.Forward(x, true)
	for f := 0; f < 2; f++ {
		var mean, variance float64
		for b := 0; b < 64; b++ {
			mean += float64(y.At(b, f))
		}
		mean /= 64
		for b := 0; b < 64; b++ {
			d := float64(y.At(b, f)) - mean
			variance += d * d
		}
		variance /= 64
		if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-2 {
			t.Fatalf("feature %d not normalized: mean=%v var=%v", f, mean, variance)
		}
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	bn := NewBatchNorm(1)
	rng := tensor.NewRNG(3)
	for i := 0; i < 200; i++ {
		x := tensor.New(32, 1)
		rng.FillNormal(x, 4, 2)
		bn.Forward(x, true)
	}
	if math.Abs(float64(bn.RunMean.Data[0])-4) > 0.3 {
		t.Fatalf("running mean = %v, want ≈4", bn.RunMean.Data[0])
	}
	if math.Abs(float64(bn.RunVar.Data[0])-4) > 0.8 {
		t.Fatalf("running var = %v, want ≈4", bn.RunVar.Data[0])
	}
}

func TestMaxPoolForward(t *testing.T) {
	p := NewMaxPool2D(2, 2)
	x := tensor.FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 3,
		1, 1, 4, 4,
	}, 1, 1, 4, 4)
	y := p.Forward(x, false)
	want := []float32{4, 8, 9, 4}
	for i, v := range want {
		if y.Data[i] != v {
			t.Fatalf("MaxPool = %v", y.Data)
		}
	}
}

func TestGlobalAvgPoolForward(t *testing.T) {
	p := NewGlobalAvgPool()
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 10, 10, 10, 10}, 1, 2, 2, 2)
	y := p.Forward(x, false)
	if y.Data[0] != 2.5 || y.Data[1] != 10 {
		t.Fatalf("GAP = %v", y.Data)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	x := tensor.New(2, 3, 4, 5)
	y := f.Forward(x, false)
	if y.Dim(0) != 2 || y.Dim(1) != 60 {
		t.Fatalf("Flatten shape %v", y.Shape())
	}
	back := f.Backward(y)
	if back.Rank() != 4 || back.Dim(3) != 5 {
		t.Fatalf("Flatten backward shape %v", back.Shape())
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		1, 5, 0,
		9, 0, 0,
		0, 0, 3,
	}, 3, 3)
	if acc := Accuracy(logits, []int{1, 0, 0}); math.Abs(acc-2.0/3) > 1e-9 {
		t.Fatalf("Accuracy = %v", acc)
	}
}

func TestSGDMomentumDescendsQuadratic(t *testing.T) {
	// Minimize f(w) = ||w - 3||² with momentum SGD.
	p := NewParam("w", 4)
	p.W.Fill(0)
	opt := NewSGD(0.1, 0.9, 0)
	for i := 0; i < 100; i++ {
		for j := range p.W.Data {
			p.G.Data[j] = 2 * (p.W.Data[j] - 3)
		}
		opt.Step([]*Param{p})
	}
	for _, v := range p.W.Data {
		if math.Abs(float64(v)-3) > 1e-2 {
			t.Fatalf("SGD failed to converge: %v", p.W.Data)
		}
	}
	if p.G.Norm() != 0 {
		t.Fatal("Step must zero gradients")
	}
}

func TestAdamDescendsQuadratic(t *testing.T) {
	p := NewParam("w", 4)
	p.W.Fill(10)
	opt := NewAdam(0.3)
	for i := 0; i < 300; i++ {
		for j := range p.W.Data {
			p.G.Data[j] = 2 * (p.W.Data[j] + 1)
		}
		opt.Step([]*Param{p})
	}
	for _, v := range p.W.Data {
		if math.Abs(float64(v)+1) > 0.05 {
			t.Fatalf("Adam failed to converge: %v", p.W.Data)
		}
	}
}

// TestAdamReleaseRestartsMoments: Release hands both moment buffers back (the
// package's tests poison what the arena receives), and the next Step borrows
// zeroed ones instead of reading them.
func TestAdamReleaseRestartsMoments(t *testing.T) {
	p := NewParam("w", 4)
	opt := NewAdam(0.1)
	p.G.Fill(1)
	opt.Step([]*Param{p})
	opt.Release()
	if len(opt.m) != 0 || len(opt.v) != 0 {
		t.Fatalf("Release left %d first and %d second moments", len(opt.m), len(opt.v))
	}
	p.G.Fill(1)
	opt.Step([]*Param{p})
	if p.W.HasNaN() {
		t.Fatalf("Step after Release read a released moment buffer: %v", p.W.Data)
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	p := NewParam("w", 1)
	p.W.Data[0] = 1
	opt := NewSGD(0.1, 0, 0.5)
	opt.Step([]*Param{p}) // grad 0, decay only: w -= 0.1*0.5*1
	if math.Abs(float64(p.W.Data[0])-0.95) > 1e-6 {
		t.Fatalf("weight decay: %v", p.W.Data[0])
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", 2)
	p.G.Data[0], p.G.Data[1] = 3, 4 // norm 5
	pre := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(pre-5) > 1e-6 {
		t.Fatalf("pre-clip norm = %v", pre)
	}
	if math.Abs(p.G.Norm()-1) > 1e-5 {
		t.Fatalf("post-clip norm = %v", p.G.Norm())
	}
}

func TestFlattenLoadVectorRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(4)
	m := NewMLP(rng, 5, []int{7}, 3, 1.0)
	params := m.Params()
	states := m.States()
	vec := FlattenVector(params, states)
	if len(vec) != VectorLen(params, states) {
		t.Fatal("vector length mismatch")
	}
	// Perturb then restore.
	m2 := NewMLP(tensor.NewRNG(99), 5, []int{7}, 3, 1.0)
	LoadVector(vec, m2.Params(), m2.States())
	vec2 := FlattenVector(m2.Params(), m2.States())
	for i := range vec {
		if vec[i] != vec2[i] {
			t.Fatal("round trip mismatch")
		}
	}
	if BytesOf(params, states) != int64(len(vec))*4 {
		t.Fatal("BytesOf wrong")
	}
}

func TestCopyOverlapNesting(t *testing.T) {
	src := tensor.FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 3, 3)
	dst := tensor.New(2, 2)
	CopyOverlap(dst, src)
	want := []float32{1, 2, 4, 5}
	for i, v := range want {
		if dst.Data[i] != v {
			t.Fatalf("CopyOverlap small = %v", dst.Data)
		}
	}
	// Write back into a bigger tensor: only the top-left orthant changes.
	big := tensor.New(3, 3)
	big.Fill(-1)
	CopyOverlap(big, dst)
	if big.At(0, 0) != 1 || big.At(1, 1) != 5 || big.At(2, 2) != -1 || big.At(0, 2) != -1 {
		t.Fatalf("CopyOverlap write-back = %v", big.Data)
	}
}

func TestCopyOverlap4D(t *testing.T) {
	rng := tensor.NewRNG(5)
	src := tensor.New(4, 3, 3, 3)
	rng.FillNormal(src, 0, 1)
	dst := tensor.New(2, 2, 3, 3)
	CopyOverlap(dst, src)
	for oc := 0; oc < 2; oc++ {
		for ic := 0; ic < 2; ic++ {
			for y := 0; y < 3; y++ {
				for x := 0; x < 3; x++ {
					if dst.At(oc, ic, y, x) != src.At(oc, ic, y, x) {
						t.Fatal("4D overlap copy mismatch")
					}
				}
			}
		}
	}
}

func TestAccumOverlapAverages(t *testing.T) {
	sum := tensor.New(2, 2)
	cnt := tensor.New(2, 2)
	a := tensor.FromSlice([]float32{1, 1, 1, 1}, 2, 2)
	b := tensor.FromSlice([]float32{3}, 1, 1)
	AccumOverlap(sum, cnt, a, 1)
	AccumOverlap(sum, cnt, b, 1)
	// (0,0) covered by both → (1+3)/2 = 2; others by a only → 1.
	for i := range sum.Data {
		if cnt.Data[i] > 0 {
			sum.Data[i] /= cnt.Data[i]
		}
	}
	if sum.At(0, 0) != 2 || sum.At(0, 1) != 1 || sum.At(1, 1) != 1 {
		t.Fatalf("AccumOverlap = %v", sum.Data)
	}
}

func TestWidthScale(t *testing.T) {
	if WidthScale(16, 0.5) != 8 {
		t.Fatal("half of 16 should be 8")
	}
	if WidthScale(16, 0.01) != 1 {
		t.Fatal("must keep at least one unit")
	}
	if WidthScale(16, 1.0) != 16 {
		t.Fatal("full rate keeps all")
	}
	if WidthScale(10, 0.25) != 3 {
		t.Fatalf("ceil(2.5) = 3, got %d", WidthScale(10, 0.25))
	}
}

func TestModelBuildersShapes(t *testing.T) {
	rng := tensor.NewRNG(6)
	x2 := tensor.New(2, 12)
	mlp := NewMLP(rng, 12, []int{16, 16}, 6, 1.0)
	if y := mlp.Forward(x2, false); y.Dim(1) != 6 {
		t.Fatalf("MLP out shape %v", y.Shape())
	}
	x4 := tensor.New(2, 3, 16, 16)
	vgg := NewVGGLike(rng, 3, 16, []int{8, 16, 16}, 10, 1.0)
	if y := vgg.Forward(x4, false); y.Dim(1) != 10 {
		t.Fatalf("VGG out shape %v", y.Shape())
	}
	res := NewResNetLike(rng, 3, 16, []int{8, 16}, 10, 1.0)
	if y := res.Forward(x4, false); y.Dim(1) != 10 {
		t.Fatalf("ResNet out shape %v", y.Shape())
	}
	// Width-scaled variants shrink parameter counts.
	full := ParamCount(NewResNetLike(tensor.NewRNG(7), 3, 16, []int{8, 16}, 10, 1.0).Params())
	half := ParamCount(NewResNetLike(tensor.NewRNG(7), 3, 16, []int{8, 16}, 10, 0.5).Params())
	if half >= full {
		t.Fatalf("width scaling did not shrink model: %d vs %d", half, full)
	}
}

func TestCostMonotoneInWidth(t *testing.T) {
	fFull, _ := ForwardCost(NewVGGLike(tensor.NewRNG(8), 3, 16, []int{8, 16}, 10, 1.0), 3*16*16)
	fHalf, _ := ForwardCost(NewVGGLike(tensor.NewRNG(8), 3, 16, []int{8, 16}, 10, 0.5), 3*16*16)
	if fFull <= fHalf || fFull <= 0 {
		t.Fatalf("cost model: full=%d half=%d", fFull, fHalf)
	}
	tf, tm := TrainCost(NewMLP(tensor.NewRNG(9), 10, []int{20}, 5, 1.0), 10)
	ff, _ := ForwardCost(NewMLP(tensor.NewRNG(9), 10, []int{20}, 5, 1.0), 10)
	if tf != 3*ff || tm <= 0 {
		t.Fatalf("train cost: %d vs 3×%d", tf, ff)
	}
}
