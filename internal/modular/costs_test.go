package modular

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestModuleCostsZeroAlloc: the costs a model holds are the ones a fresh walk
// of its layers gives — for the HAR MLP and the image10 ResNet, before and
// after a training forward that records a new input geometry (1×64 images
// under a model built for 8×8) — reading them allocates nothing after the
// first call, and workers deriving at once from a model whose costs are not
// held yet all solve what a serial Derive solves (run under -race too).
func TestModuleCostsZeroAlloc(t *testing.T) {
	cfg := Config{ModulesPerLayer: 16, TopK: 2, EmbedDim: 16, ResidualModules: true, MinShrink: 0.25, MaxShrink: 0.5}
	cases := []struct {
		name    string
		build   func() *Model
		inShape []int // a training batch's per-sample shape
	}{
		{"har-mlp", func() *Model { return NewModularMLP(tensor.NewRNG(91), 64, 48, 6, cfg) }, []int{64}},
		{"image10-resnet", func() *Model {
			return NewModularCNN(tensor.NewRNG(92), 3, 8, 16, []ConvStage{{OutC: 24, Stride: 1}, {OutC: 32, Stride: 2}}, 10, cfg)
		}, []int{3, 1, 64}},
	}
	same := func(t *testing.T, m *Model, when string) {
		t.Helper()
		stem, head, mods := m.ModuleCosts()
		w := m.walkCosts()
		if stem != w.stem || head != w.head || !reflect.DeepEqual(mods, w.modules) {
			t.Fatalf("%s: the held costs are not a fresh walk's", when)
		}
		if !reflect.DeepEqual(m.heldCosts().items, w.items) {
			t.Fatalf("%s: the held knapsack cost vectors are not a fresh walk's", when)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.build()
			same(t, m, "built")
			_, _, built := m.ModuleCosts()
			if !raceEnabled {
				if n := testing.AllocsPerRun(100, func() { m.ModuleCosts() }); n != 0 {
					t.Fatalf("ModuleCosts allocates %v times a call once held", n)
				}
			}
			x := tensor.New(append([]int{4}, tc.inShape...)...)
			tensor.NewRNG(93).FillNormal(x, 0, 1)
			m.Forward(x, nil, true)
			same(t, m, "after a training forward")
			if _, _, after := m.ModuleCosts(); len(tc.inShape) > 1 && reflect.DeepEqual(after, built) {
				t.Fatal("a forward over another geometry left the module costs as they were")
			}

			// Derive from workers at once, the costs dropped by the forward
			// above and not yet walked again.
			imp := m.Importance(x)
			budget := m.PoolBudget(0.3)
			m.Forward(x, nil, false)
			want := tc.build()
			want.Forward(x, nil, false)
			serial := want.Derive(imp, budget, false)
			const workers = 4
			got := make([][][]int, workers)
			var wg sync.WaitGroup
			for w := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[w] = m.Derive(imp, budget, false)
				}()
			}
			wg.Wait()
			for w, g := range got {
				if !reflect.DeepEqual(g, serial) {
					t.Fatalf("worker %d derived %v, a serial Derive %v", w, g, serial)
				}
			}
			same(t, m, "after concurrent derives")
		})
	}
}

// TestAggregateZeroWeightsAverageUniformly: updates that carry no weight at
// all average stem and head uniformly — bit for bit as equal unit weights do —
// instead of scaling the cloud's stem and head by the retention alone.
func TestAggregateZeroWeightsAverageUniformly(t *testing.T) {
	for _, n := range []int{1, 3} {
		aggregate := func(weight float64) *Model {
			m := NewModularMLP(tensor.NewRNG(95), 10, 16, 4, smallCfg())
			var updates []*Update
			for k := 0; k < n; k++ {
				sub := m.Extract([][]int{{k}})
				for _, p := range sub.Params() {
					tensor.NewRNG(int64(96+k)).FillNormal(p.W, 0, 1)
				}
				updates = append(updates, &Update{Sub: sub, Importance: [][]float64{{0.25, 0.25, 0.25, 0.25}}, Weight: weight})
			}
			m.AggregateModuleWiseRetain(updates, DefaultRetain)
			return m
		}
		backbone := func(m *Model) []float32 {
			ps := append(m.Stem.Params(), m.Head.Params()...)
			return nn.FlattenVector(ps, append(nn.LayerStates(m.Stem), nn.LayerStates(m.Head)...))
		}
		if got, want := backbone(aggregate(0)), backbone(aggregate(1)); !sameBits(got, want) {
			t.Fatalf("%d updates of weight 0: stem and head differ from a uniform average", n)
		}
	}
}
