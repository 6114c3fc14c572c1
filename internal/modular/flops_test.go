package modular

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// legacySubFwdFlops is the per-sample executed-FLOPs estimate Fig. 9 used
// before SubModel.ExecutedFlops, kept verbatim as its oracle: stem + average
// module cost × top-k per layer + head, over every module of the sub-model.
func legacySubFwdFlops(s *SubModel, inElems int) int {
	total, cur := 0, inElems
	if c, ok := s.Stem.(nn.Coster); ok {
		f, out := c.Cost(cur)
		total += f
		cur = out
	}
	for _, layer := range s.Layers {
		k := s.TopK
		if k > layer.N() {
			k = layer.N()
		}
		// Average module cost × k (the executed subset).
		sum, next := 0, cur
		for _, m := range layer.Modules {
			if c, ok := m.(nn.Coster); ok {
				f, out := c.Cost(cur)
				sum += f
				if out > 0 {
					next = out
				}
			}
		}
		if layer.N() > 0 {
			total += sum / layer.N() * k
		}
		cur = next
	}
	if c, ok := s.Head.(nn.Coster); ok {
		f, _ := c.Cost(cur)
		total += f
	}
	return total
}

// TestExecutedFLOPsMatchesLegacy: the one executed-FLOPs formula gives the
// old Fig. 9 estimate for a derived sub-model of every task's quick-scale
// geometry, and at every Scheduler rung the old estimate of a sub-model
// holding only that rung's modules, in the scheduler's ranked order.
func TestExecutedFLOPsMatchesLegacy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ModulesPerLayer, cfg.TopK, cfg.EmbedDim = 8, 3, 24
	cfg.MinShrink, cfg.MaxShrink = 0.25, 0.7
	rng := tensor.NewRNG(81)
	for _, tc := range []struct {
		name string
		m    *Model
	}{
		{"har-mlp", NewModularMLP(rng, 64, 48, 6, cfg)},
		{"image10-resnet", NewModularCNN(rng, 3, 8, 16, []ConvStage{{OutC: 24, Stride: 1}, {OutC: 32, Stride: 2}}, 10, cfg)},
		{"image100-vgg", NewModularCNN(rng, 3, 8, 16, []ConvStage{{OutC: 24, Stride: 2}, {OutC: 40, Stride: 2}}, 20, cfg)},
		{"speech-resnet", NewModularCNN(rng, 1, 16, 12, []ConvStage{{OutC: 20, Stride: 2}, {OutC: 28, Stride: 2}}, 35, cfg)},
	} {
		in := 1
		for _, d := range tc.m.InShape {
			in *= d
		}
		probe := tensor.New(append([]int{4}, tc.m.InShape...)...)
		rng.FillNormal(probe, 0, 1)
		for _, frac := range []float64{0.35, 1} {
			sub := tc.m.Extract(tc.m.Derive(tc.m.Importance(probe), tc.m.PoolBudget(frac), false))
			if got, want := sub.ExecutedFlops(nil), legacySubFwdFlops(sub, in); got != want {
				t.Errorf("%s at budget %.2f: whole sub-model %d FLOPs, legacy %d", tc.name, frac, got, want)
			}
			s := NewScheduler(sub, probe)
			for r := 0; r < s.Rungs(); r++ {
				rung := &SubModel{Stem: sub.Stem, Head: sub.Head, TopK: sub.TopK, InShape: sub.InShape}
				for l, layer := range sub.Layers {
					kept := NewModuleLayer()
					for _, j := range s.ranked[l][:s.ladder[r][l]] {
						kept.Modules = append(kept.Modules, layer.Modules[j])
					}
					rung.Layers = append(rung.Layers, kept)
				}
				if got, want := s.FlopsOf(r), legacySubFwdFlops(rung, in); got != want {
					t.Errorf("%s at budget %.2f, rung %d: %d FLOPs, legacy %d", tc.name, frac, r, got, want)
				}
			}
		}
	}
}
