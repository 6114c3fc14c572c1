package nn

import (
	"testing"

	"repro/internal/tensor"
)

func TestCloneLayerIndependence(t *testing.T) {
	rng := tensor.NewRNG(1)
	models := []Layer{
		NewDense(rng, 4, 3),
		NewConv2D(rng, 2, 3, 3, 1, 1),
		NewBatchNorm(4),
		NewSequential(NewDense(rng, 4, 8), NewReLU(), NewBatchNorm(8), NewDense(rng, 8, 2)),
		ResNetBlock(rng, 2, 4, 2),
		VGGBlock(rng, 2, 3, 2),
	}
	for i, m := range models {
		c := CloneLayer(m)
		mv := FlattenVector(m.Params(), LayerStates(m))
		cv := FlattenVector(c.Params(), LayerStates(c))
		if len(mv) != len(cv) {
			t.Fatalf("model %d: clone has different size", i)
		}
		for j := range mv {
			if mv[j] != cv[j] {
				t.Fatalf("model %d: clone differs at %d", i, j)
			}
		}
		// Mutating the clone must not touch the original.
		for _, p := range c.Params() {
			p.W.Fill(123)
		}
		mv2 := FlattenVector(m.Params(), LayerStates(m))
		for j := range mv {
			if mv[j] != mv2[j] {
				t.Fatalf("model %d: clone shares storage", i)
			}
		}
	}
}

func TestCloneLayerForwardEquivalence(t *testing.T) {
	rng := tensor.NewRNG(2)
	m := NewSequential(
		NewConv2D(rng, 1, 4, 3, 1, 1),
		NewBatchNorm(4),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewDense(rng, 4*4*4, 3),
	)
	c := CloneLayer(m)
	x := tensor.New(2, 1, 8, 8)
	rng.FillNormal(x, 0, 1)
	a := m.Forward(x, false)
	b := c.Forward(x, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("clone forward differs at %d", i)
		}
	}
}

func TestCloneLayerUnsupportedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsupported layer")
		}
	}()
	CloneLayer(unsupportedLayer{})
}

type unsupportedLayer struct{}

func (unsupportedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }
func (unsupportedLayer) Backward(g *tensor.Tensor) *tensor.Tensor            { return g }
func (unsupportedLayer) Params() []*Param                                    { return nil }
