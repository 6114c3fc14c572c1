package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// gradCheck verifies a layer's analytic gradients (input and parameters)
// against central finite differences using the loss L = Σ out·R for a fixed
// random R. float32 forward passes limit precision, so tolerances are loose.
func gradCheck(t *testing.T, name string, layer Layer, inShape []int, seed int64) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	x := tensor.New(inShape...)
	rng.FillNormal(x, 0, 1)

	out := layer.Forward(x, true)
	r := tensor.New(out.Shape()...)
	rng.FillNormal(r, 0, 1)

	loss := func() float64 {
		y := layer.Forward(x, true)
		var s float64
		for i, v := range y.Data {
			s += float64(v) * float64(r.Data[i])
		}
		return s
	}

	ZeroGrads(layer.Params())
	layer.Forward(x, true)
	dx := layer.Backward(r.Clone())

	// eps balances truncation error against float32 rounding noise; 1e-2 is
	// large enough to flip ReLU masks (non-smooth loss), 1e-4 drowns in
	// rounding, 1e-3 sits in the sweet spot for these layer sizes.
	const eps = 1e-3
	// Loss surfaces with ReLU/MaxPool are piecewise linear; a perturbation
	// that crosses a kink biases the central difference. Allow a few percent.
	const tol = 5e-2
	check := func(what string, w *tensor.Tensor, g *tensor.Tensor, i int) {
		orig := w.Data[i]
		w.Data[i] = orig + eps
		lp := loss()
		w.Data[i] = orig - eps
		lm := loss()
		w.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		ana := float64(g.Data[i])
		scale := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
		if math.Abs(num-ana)/scale > tol {
			t.Errorf("%s %s[%d]: analytic %.5f vs numeric %.5f", name, what, i, ana, num)
		}
	}
	// Input gradients: sample a handful of coordinates.
	step := x.Len()/7 + 1
	for i := 0; i < x.Len(); i += step {
		check("input", x, dx, i)
	}
	// Parameter gradients.
	for _, p := range layer.Params() {
		pstep := p.W.Len()/5 + 1
		for i := 0; i < p.W.Len(); i += pstep {
			check(p.Name, p.W, p.G, i)
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	gradCheck(t, "Dense", NewDense(rng, 6, 4), []int{3, 6}, 2)
}

func TestConv2DGradients(t *testing.T) {
	rng := tensor.NewRNG(3)
	gradCheck(t, "Conv2D", NewConv2D(rng, 2, 3, 3, 1, 1), []int{2, 2, 5, 5}, 4)
}

func TestConv2DStrideGradients(t *testing.T) {
	rng := tensor.NewRNG(5)
	gradCheck(t, "Conv2D-s2", NewConv2D(rng, 2, 4, 3, 2, 1), []int{2, 2, 6, 6}, 6)
}

func TestBatchNorm2DGradients(t *testing.T) {
	gradCheck(t, "BatchNorm2", NewBatchNorm(5), []int{8, 5}, 7)
}

func TestBatchNorm4DGradients(t *testing.T) {
	gradCheck(t, "BatchNorm4", NewBatchNorm(3), []int{4, 3, 4, 4}, 8)
}

func TestReLUGradients(t *testing.T) {
	gradCheck(t, "ReLU", NewReLU(), []int{4, 9}, 9)
}

func TestMaxPoolGradients(t *testing.T) {
	gradCheck(t, "MaxPool", NewMaxPool2D(2, 2), []int{2, 2, 6, 6}, 10)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	gradCheck(t, "GAP", NewGlobalAvgPool(), []int{2, 3, 4, 4}, 11)
}

func TestResidualBlockGradients(t *testing.T) {
	rng := tensor.NewRNG(12)
	gradCheck(t, "Residual", ResNetBlock(rng, 3, 3, 1), []int{2, 3, 5, 5}, 13)
}

func TestResidualProjectionGradients(t *testing.T) {
	rng := tensor.NewRNG(14)
	gradCheck(t, "ResidualProj", ResNetBlock(rng, 2, 4, 2), []int{2, 2, 6, 6}, 15)
}

func TestSequentialGradients(t *testing.T) {
	rng := tensor.NewRNG(16)
	model := NewSequential(
		NewDense(rng, 8, 10),
		NewReLU(),
		NewBatchNorm(10),
		NewDense(rng, 10, 3),
	)
	gradCheck(t, "Sequential", model, []int{5, 8}, 17)
}

func TestVGGBlockGradients(t *testing.T) {
	rng := tensor.NewRNG(18)
	gradCheck(t, "VGGBlock", VGGBlock(rng, 2, 3, 2), []int{2, 2, 6, 6}, 19)
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	rng := tensor.NewRNG(20)
	logits := tensor.New(4, 5)
	rng.FillNormal(logits, 0, 1)
	labels := []int{1, 0, 4, 2}
	_, grad := SoftmaxCrossEntropy(logits, labels)

	const eps = 1e-3
	for i := 0; i < logits.Len(); i += 3 {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig - eps
		lm, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(grad.Data[i])) > 1e-3 {
			t.Fatalf("CE grad[%d]: analytic %v vs numeric %v", i, grad.Data[i], num)
		}
	}
}
