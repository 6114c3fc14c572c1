package fed

import (
	"testing"

	"repro/internal/modular"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Regression for the cloud-pull blend: module layer states (BatchNorm
// running statistics) must be pulled from the cloud like stem/head states.
// The old blend touched only stem+head states, so refreshed modules kept
// serving with stale local normalization.
func TestBlendSubModelsBlendsModuleStates(t *testing.T) {
	rng := tensor.NewRNG(3)
	const in, h = 3, 4
	mkModule := func() nn.Layer {
		return nn.NewSequential(nn.NewDense(rng, h, h), nn.NewBatchNorm(h))
	}
	layer := modular.NewModuleLayer()
	layer.Modules = append(layer.Modules, mkModule(), mkModule())
	m := &modular.Model{
		Stem:     nn.NewSequential(nn.NewDense(rng, in, h), nn.NewBatchNorm(h)),
		Layers:   []*modular.ModuleLayer{layer},
		Head:     nn.NewDense(rng, h, 2),
		Selector: modular.NewSelector(rng, in, 4, []int{2}),
		InShape:  []int{in},
		TopK:     1,
	}
	active := [][]int{{0, 1}}
	local := m.Extract(active)
	cloud := m.Extract(active)

	// Stem BN (2 tensors) + two module BNs (2 each) + head (none).
	if got := len(local.AllStates()); got != 6 {
		t.Fatalf("AllStates returned %d tensors, want 6", got)
	}
	plant := func(s *modular.SubModel, v float32) {
		for _, st := range s.AllStates() {
			for i := range st.Data {
				st.Data[i] = v
			}
		}
	}
	plant(local, 1)
	plant(cloud, 3)

	blendSubModels(local, local.Params(), inTensors(cloud.Params(), cloud.AllStates()), 0.5)

	for _, l := range local.Layers {
		for _, mod := range l.Modules {
			for _, st := range nn.LayerStates(mod) {
				for i, v := range st.Data {
					if v != 2 {
						t.Fatalf("module BN state[%d] = %v after blend, want 2 (0.5·1 + 0.5·3)", i, v)
					}
				}
			}
		}
	}
	for _, st := range nn.LayerStates(local.Stem) {
		if st.Data[0] != 2 {
			t.Fatalf("stem state = %v after blend, want 2", st.Data[0])
		}
	}
}
