package nn

import (
	"testing"

	"repro/internal/tensor"
)

// TestForwardDeterministicAcrossParallelism pins the README claim: a full
// training step — forward, backward and SGD.Step — is bit-identical whatever
// the worker count. Every output element is computed by exactly one goroutine
// in a fixed order, and the one cross-sample reduction (Conv2D's weight
// gradient) groups the batch by its size alone, never by tensor.Parallelism.
// Batch 3 runs as one group; 8 and 13 split into two halves, 13 unevenly.
func TestForwardDeterministicAcrossParallelism(t *testing.T) {
	// step returns the forward output, the gradients backward produced and
	// the parameters after one SGD step, concatenated.
	step := func(batch int) (out, grads, params []float32) {
		rng := tensor.NewRNG(77)
		m := NewSequential(
			NewConv2D(rng, 3, 16, 3, 1, 1),
			NewBatchNorm(16),
			NewReLU(),
			NewMaxPool2D(2, 2),
			NewConv2D(rng, 16, 24, 3, 2, 1),
			NewReLU(),
			NewConv2D(rng, 24, 24, 1, 1, 0),
			NewGlobalAvgPool(),
			NewDense(rng, 24, 10),
		)
		x := tensor.New(batch, 3, 16, 16)
		rng.FillNormal(x, 0, 1)
		labels := make([]int, batch)
		for i := range labels {
			labels[i] = i % 10
		}
		y := m.Forward(x, true)
		out = append(out, y.Data...)
		_, grad := SoftmaxCrossEntropy(y, labels)
		m.Backward(grad)
		for _, p := range m.Params() {
			grads = append(grads, p.G.Data...)
		}
		NewSGD(0.1, 0.9, 1e-4).Step(m.Params())
		for _, p := range m.Params() {
			params = append(params, p.W.Data...)
		}
		return out, grads, params
	}
	same := func(what string, batch, workers int, got, want []float32) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("batch=%d workers=%d: %d %s, want %d", batch, workers, len(got), what, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch=%d workers=%d: %s[%d] = %v, want %v (workers=1)", batch, workers, what, i, got[i], want[i])
			}
		}
	}

	old := tensor.Parallelism
	defer func() { tensor.Parallelism = old }()
	for _, batch := range []int{3, 8, 13} {
		tensor.Parallelism = 1
		refOut, refGrads, refParams := step(batch)
		for _, workers := range []int{2, 3, 8} {
			tensor.Parallelism = workers
			out, grads, params := step(batch)
			same("output", batch, workers, out, refOut)
			same("gradient", batch, workers, grads, refGrads)
			same("parameter", batch, workers, params, refParams)
		}
	}
}
