package modular

import (
	"testing"

	"repro/internal/tensor"
)

// TestBackwardParallelismInvariant pins the scheduling-independence of
// ModuleLayer.Backward. A sample routed to k modules receives k input-gradient
// contributions; with k ≥ 3 the floating-point sum depends on the order the
// contributions are applied, so the reduction must run in module order rather
// than module-completion order. The regression this guards: dx was accumulated
// under a mutex as each parallel module backward finished, which made every
// gradient downstream of a module layer (stem, selector) vary run-to-run for
// Parallelism ≥ 2 — race-free, serially deterministic, and invisible to the
// race detector. The CNN runs the same check through Conv2D.Backward, whose
// weight-gradient partials must be grouped by the batch, not by the worker
// count.
func TestBackwardParallelismInvariant(t *testing.T) {
	cfg := smallCfg()
	cfg.TopK = 4 // 4 contributions per dx row: enough for order to matter
	models := []struct {
		name string
		m    *Model
		in   []int
	}{
		{"mlp", NewModularMLP(tensor.NewRNG(11), 8, 96, 5, cfg), []int{32, 8}},
		{"cnn", NewModularCNN(tensor.NewRNG(11), 3, 8, 8, []ConvStage{{OutC: 12, Stride: 2}}, 5, cfg), []int{13, 3, 8, 8}},
	}
	old := tensor.Parallelism
	defer func() { tensor.Parallelism = old }()
	for _, tc := range models {
		m := tc.m
		m.Selector.NoiseStd = 0 // routing must be a pure function of the input
		rng := tensor.NewRNG(12)
		x := tensor.New(tc.in...)
		rng.FillNormal(x, 0, 1)
		dLogits := tensor.New(tc.in[0], 5)
		rng.FillNormal(dLogits, 0, 1)

		params := m.Params()
		runOnce := func() []float32 {
			for _, p := range params {
				for i := range p.G.Data {
					p.G.Data[i] = 0
				}
			}
			m.Forward(x, nil, true)
			m.Backward(dLogits, 0)
			var out []float32
			for _, p := range params {
				out = append(out, p.G.Data...)
			}
			return out
		}

		tensor.Parallelism = 1
		ref := runOnce()

		tensor.Parallelism = 4
		for trial := 0; trial < 100; trial++ {
			got := runOnce()
			if len(got) != len(ref) {
				t.Fatalf("%s trial %d: %d gradient elements, want %d", tc.name, trial, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s trial %d: grad[%d] = %v parallel vs %v serial — reduction grouped by scheduling",
						tc.name, trial, i, got[i], ref[i])
				}
			}
		}
	}
}
