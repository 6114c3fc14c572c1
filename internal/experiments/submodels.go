package experiments

import (
	"fmt"
	"sort"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/modular"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// RunFig12 reproduces Figure 12: the accuracy-vs-size landscape of candidate
// sub-models. For models trained with and without module ability-enhancing
// training, random module subsets are sampled and evaluated on non-IID local
// tasks (two skew levels) and the IID global task; the knapsack-selected
// sub-models trace the Pareto frontier.
func RunFig12(opt Options) []*metrics.Table {
	task := fed.Image100Task(opt.Seed+70, opt.Scale)
	rng := tensor.NewRNG(opt.Seed + 71)
	proxy := data.MakeBalancedDataset(rng, task.Gen, data.DefaultEnv(), opt.ProxyPerClass)

	train := func(enhance bool) *fed.Nebula {
		nb := fed.NewNebula(task, opt.fedConfig())
		nb.AbilityEnhancing = enhance
		nb.TrainCfg.Epochs = opt.PretrainEpochs
		nb.Pretrain(tensor.NewRNG(opt.Seed+72), proxy)
		return nb
	}
	withAE := train(true)
	withoutAE := train(false)

	m1 := task.Classes / 10
	if m1 < 2 {
		m1 = 2
	}
	m2 := task.Classes / 5
	settings := []struct {
		name    string
		classes []int
	}{
		{fmt.Sprintf("non-IID m=%d", m1), data.AllClasses(task.Classes)[:m1]},
		{fmt.Sprintf("non-IID m=%d", m2), data.AllClasses(task.Classes)[:m2]},
		{"IID", data.AllClasses(task.Classes)},
	}

	var tables []*metrics.Table
	for _, st := range settings {
		test := data.MakeDataset(rng, task.Gen, data.DefaultEnv(), st.classes, 300)
		tb := metrics.NewTable("Fig 12: sub-model accuracy vs size — "+st.name,
			"series", "params", "accuracy")
		probe, _ := test.Batch(firstN(64, test.Len()))

		for _, mv := range []struct {
			name string
			nb   *fed.Nebula
		}{{"w/ ability-enhancing", withAE}, {"w/o ability-enhancing", withoutAE}} {
			pts := randomSubModels(rng, mv.nb.Model, opt.RandomSubModels, test)
			for _, p := range pts {
				tb.AddRow(mv.name, p.params, f2(100*p.acc))
			}
		}
		// Knapsack-selected sub-models across budgets (Pareto curve).
		imp := withAE.Model.Importance(probe)
		for _, frac := range []float64{0.15, 0.3, 0.5, 0.75, 1.0} {
			b := withAE.Model.PoolBudget(frac)
			active := withAE.Model.Derive(imp, b, false)
			sub := withAE.Model.Extract(active)
			acc := fed.EvalLayer(sub, test)
			tb.AddRow("selected (knapsack)", nn.ParamCount(sub.Params()), f2(100*acc))
		}
		tables = append(tables, tb)
		opt.logf("fig12 %s done", st.name)
	}
	return tables
}

type subPoint struct {
	params int
	acc    float64
}

// randomSubModels samples random per-layer module subsets and evaluates them.
func randomSubModels(rng *tensor.RNG, m *modular.Model, n int, test *data.Dataset) []subPoint {
	var pts []subPoint
	for i := 0; i < n; i++ {
		active := make([][]int, len(m.Layers))
		for l, layer := range m.Layers {
			k := 1 + rng.Intn(layer.N())
			sel := rng.Sample(layer.N(), k)
			sort.Ints(sel)
			active[l] = sel
		}
		sub := m.Extract(active)
		pts = append(pts, subPoint{params: nn.ParamCount(sub.Params()), acc: fed.EvalLayer(sub, test)})
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].params < pts[b].params })
	return pts
}

func firstN(n, max int) []int {
	if n > max {
		n = max
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
