package fed

import (
	"math"
	"testing"

	"repro/internal/modular"
	"repro/internal/tensor"
)

func TestOverlapRatio(t *testing.T) {
	held := [][]int{{0, 1, 2}, {3, 4}}
	if r := overlapRatio(held, [][]int{{0, 1, 2}, {3, 4}}); r != 1 {
		t.Fatalf("identical sets: %v", r)
	}
	if r := overlapRatio(held, [][]int{{5, 6, 7}, {0, 1}}); r != 0 {
		t.Fatalf("disjoint sets: %v", r)
	}
	// Half overlap in each layer: inter=3 (0,1 + 3), union=6? layer0:
	// held{0,1,2} vs {0,1,9} → inter 2, union 4; layer1: {3,4} vs {3,9} →
	// inter 1, union 3. total 3/7.
	r := overlapRatio(held, [][]int{{0, 1, 9}, {3, 9}})
	if math.Abs(r-3.0/7) > 1e-9 {
		t.Fatalf("partial overlap: %v, want %v", r, 3.0/7)
	}
	if r := overlapRatio(nil, nil); r != 1 {
		t.Fatalf("empty should be full overlap: %v", r)
	}
}

func TestBlendSubModels(t *testing.T) {
	rng := tensor.NewRNG(1)
	cfg := modular.Config{ModulesPerLayer: 4, TopK: 2, EmbedDim: 16, MinShrink: 0.25, MaxShrink: 0.5}
	m := modular.NewModularMLP(rng, 8, 12, 3, cfg)
	local := m.Extract([][]int{{0, 1}})
	cloud := m.Extract([][]int{{0, 1}})
	for _, p := range local.Params() {
		p.W.Fill(0)
	}
	for _, p := range cloud.Params() {
		p.W.Fill(2)
	}
	blendSubModels(local, local.Params(), inTensors(cloud.Params(), cloud.AllStates()), 0.25)
	for _, p := range local.Params() {
		for _, v := range p.W.Data {
			if math.Abs(float64(v)-0.5) > 1e-6 {
				t.Fatalf("blend(0,2,0.25) = %v, want 0.5", v)
			}
		}
	}
	// b=0 keeps local untouched.
	blendSubModels(local, local.Params(), inTensors(cloud.Params(), cloud.AllStates()), 0)
	for _, p := range local.Params() {
		for _, v := range p.W.Data {
			if math.Abs(float64(v)-0.5) > 1e-6 {
				t.Fatalf("b=0 changed weights: %v", v)
			}
		}
	}
}

func TestNebulaPersistentSubModelAcrossRounds(t *testing.T) {
	rng := tensor.NewRNG(2)
	task := HARTask(3, ScaleQuick)
	cfg := tinyCfg()
	cfg.Rounds = 3
	cfg.DevicesPerRound = 4
	nb := NewNebula(task, cfg)
	nb.TrainCfg.Epochs = 1
	nb.Pretrain(rng, proxyFor(rng, task, 10))
	clients := harFleet(rng, task, 4, 2)
	nb.Adapt(rng, clients)
	// Stable local tasks → the sub-model instance should persist (pull-blend
	// path) rather than being replaced each round; verify by pointer
	// identity across two further rounds.
	id := clients[0].Dev.ID
	before := nb.SubModelOf(id)
	nb.Round(rng, clients)
	nb.Round(rng, clients)
	after := nb.SubModelOf(id)
	if before == nil || after == nil {
		t.Fatal("missing sub-model")
	}
	if before != after {
		t.Fatal("sub-model was replaced despite an unchanged local task")
	}
}

func TestNebulaRederivesAfterTaskChange(t *testing.T) {
	rng := tensor.NewRNG(4)
	task := HARTask(5, ScaleQuick)
	cfg := tinyCfg()
	cfg.Rounds = 1
	cfg.DevicesPerRound = 2
	nb := NewNebula(task, cfg)
	nb.TrainCfg.Epochs = 1
	nb.RederiveOverlap = 1.01 // any difference triggers re-derivation
	nb.Pretrain(rng, proxyFor(rng, task, 10))
	clients := harFleet(rng, task, 2, 2)
	nb.Adapt(rng, clients)
	id := clients[0].Dev.ID
	before := nb.SubModelOf(id)
	// Flip the device to a completely different local task.
	clients[0].Dev.Classes = []int{4, 5}
	clients[0].Dev.Regenerate()
	nb.Round(rng, clients)
	after := nb.SubModelOf(id)
	if before == after {
		t.Fatal("expected a fresh sub-model with RederiveOverlap > 1")
	}
}
