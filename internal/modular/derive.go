package modular

import (
	"repro/internal/solve"
)

// Budget is the resource envelope for sub-model derivation: the L_j vector
// of Eq. 2 (communication, computation, memory).
type Budget struct {
	CommBytes float64 // bytes the device can afford to transfer
	FwdFLOPs  float64 // per-sample forward FLOPs the device can afford
	MemElems  float64 // training-memory elements the device can afford
}

// PoolBudget is the budget that affords stem and head, which every sub-model
// carries, plus frac of the whole module pool in each dimension. How a
// device's resources become frac is the caller's policy.
func (m *Model) PoolBudget(frac float64) Budget {
	stem, head, mods := m.ModuleCosts()
	var poolBytes, poolFlops, poolMem float64
	for _, layer := range mods {
		for _, mc := range layer {
			poolBytes += float64(mc.Bytes)
			poolFlops += float64(mc.FwdFLOPs)
			poolMem += float64(mc.TrainMemEl)
		}
	}
	// Each product is rounded before the add: a platform that fuses the two
	// (arm64 does) would round once, and could afford another module.
	return Budget{
		CommBytes: float64(stem.Bytes+head.Bytes) + float64(frac*poolBytes),
		FwdFLOPs:  float64(stem.FwdFLOPs+head.FwdFLOPs) + float64(frac*poolFlops),
		MemElems:  float64(stem.TrainMemEl+head.TrainMemEl) + float64(frac*poolMem),
	}
}

// Derive solves the personalized sub-model derivation problem (Eq. 2):
// select per-layer module subsets maximizing summed importance under the
// budget, with the most important module of every layer forced so no layer
// is empty. Stem and head costs are charged against the budget first. exact
// switches from greedy to branch-and-bound.
func (m *Model) Derive(importance [][]float64, budget Budget, exact bool) [][]int {
	costs := m.heldCosts()
	stem, head := costs.stem, costs.head

	// Charge the always-present stem and head.
	remComm := budget.CommBytes - float64(stem.Bytes+head.Bytes)
	remFlops := budget.FwdFLOPs - float64(stem.FwdFLOPs+head.FwdFLOPs)
	remMem := budget.MemElems - float64(stem.TrainMemEl+head.TrainMemEl)
	if remComm < 0 {
		remComm = 0
	}
	if remFlops < 0 {
		remFlops = 0
	}
	if remMem < 0 {
		remMem = 0
	}

	// Flatten (layer, module) into knapsack items; the solvers only read the
	// held cost vectors.
	type ref struct{ l, i int }
	refs := make([]ref, 0, len(costs.items))
	items := make([]solve.Item, 0, len(costs.items))
	for l := range m.Layers {
		for i := range m.Layers[l].Modules {
			refs = append(refs, ref{l, i})
			items = append(items, solve.Item{Value: importance[l][i], Costs: costs.items[len(items)]})
		}
	}
	budgets := []float64{remComm, remFlops, remMem}

	// Force the most important module per layer (paper's first step).
	var forced []int
	pos := 0
	for l := range m.Layers {
		best := 0
		for i := 1; i < m.Layers[l].N(); i++ {
			if importance[l][i] > importance[l][best] {
				best = i
			}
		}
		forced = append(forced, pos+best)
		pos += m.Layers[l].N()
	}

	var sel []int
	if exact {
		sel = solve.BranchBoundKnapsack(items, budgets, forced, 200000)
	} else {
		sel = solve.GreedyKnapsack(items, budgets, forced)
	}

	active := make([][]int, len(m.Layers))
	for _, s := range sel {
		r := refs[s]
		active[r.l] = append(active[r.l], r.i)
	}
	return active
}

// SelectionCost sums the resource cost of an active-set selection, including
// stem and head.
func (m *Model) SelectionCost(active [][]int) (bytes int64, fwdFLOPs, memElems int) {
	stem, head, modCosts := m.ModuleCosts()
	bytes = stem.Bytes + head.Bytes
	fwdFLOPs = stem.FwdFLOPs + head.FwdFLOPs
	memElems = stem.TrainMemEl + head.TrainMemEl
	for l, idx := range active {
		for _, i := range idx {
			c := modCosts[l][i]
			bytes += c.Bytes
			fwdFLOPs += c.FwdFLOPs
			memElems += c.TrainMemEl
		}
	}
	return bytes, fwdFLOPs, memElems
}
