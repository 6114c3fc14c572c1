package modular

import (
	"sort"

	"repro/internal/tensor"
)

// Scheduler implements the paper's on-device module scheduling (Section
// 5.1): "each device can occupy a set of feasible sub-models, which can be
// dynamically adjusted to adapt to the runtime resources fluctuation". It
// holds one downloaded sub-model and a ladder of nested module subsets of
// decreasing cost, and switches between them as the device's available
// compute changes — without any cloud round-trip.
type Scheduler struct {
	Sub *SubModel
	// ladder[i] is the per-layer count of modules rung i keeps (rung 0 =
	// everything). Rungs share the sub-model's parameters; switching rungs
	// only changes which modules execute.
	ladder [][]int // per rung, per layer: how many top modules to keep
	// ranked[l] lists the compact module indices of layer l in decreasing
	// importance, so rung r of layer l is ranked[l][:ladder[r][l]].
	ranked [][]int
	// flops[r] is the estimated per-sample forward cost of rung r.
	flops []int
	cur   int
}

// NewScheduler builds the rung ladder for a sub-model using importance
// scores from a probe batch. Rungs halve the per-layer module count down to
// one module per layer.
func NewScheduler(sub *SubModel, probe *tensor.Tensor) *Scheduler {
	s := &Scheduler{Sub: sub}
	probs := sub.Selector.Forward(probe, false)
	batch := probe.Dim(0)
	s.ranked = make([][]int, len(sub.Layers))
	for l, layer := range sub.Layers {
		imp := make([]float64, layer.N())
		for j, orig := range sub.Mapping[l] {
			for b := 0; b < batch; b++ {
				imp[j] += float64(probs[l][b][orig])
			}
		}
		idx := make([]int, layer.N())
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return imp[idx[a]] > imp[idx[b]] })
		s.ranked[l] = idx
	}
	// Build rungs: full, then halving until every layer is down to 1.
	counts := make([]int, len(sub.Layers))
	for l, layer := range sub.Layers {
		counts[l] = layer.N()
	}
	for {
		rung := append([]int(nil), counts...)
		s.ladder = append(s.ladder, rung)
		done := true
		for l := range counts {
			if counts[l] > 1 {
				counts[l] = (counts[l] + 1) / 2
				done = false
			}
		}
		if done {
			break
		}
	}
	s.flops = make([]int, len(s.ladder))
	keep := make([][]int, len(sub.Layers))
	for r, rung := range s.ladder {
		for l, n := range rung {
			keep[l] = s.ranked[l][:n]
		}
		s.flops[r] = sub.ExecutedFlops(keep)
	}
	return s
}

// Rungs returns the number of available operating points.
func (s *Scheduler) Rungs() int { return len(s.ladder) }

// Current returns the active rung (0 = full sub-model).
func (s *Scheduler) Current() int { return s.cur }

// FlopsOf returns the estimated per-sample forward FLOPs of rung r.
func (s *Scheduler) FlopsOf(r int) int { return s.flops[r] }

// Fit selects the largest rung whose estimated inference latency fits the
// budget given the device's effective compute, and returns it. The choice is
// sticky until the next Fit call.
func (s *Scheduler) Fit(effectiveFLOPS float64, latencyBudget float64) int {
	chosen := len(s.ladder) - 1
	for r := 0; r < len(s.ladder); r++ {
		if float64(s.flops[r])/effectiveFLOPS <= latencyBudget {
			chosen = r
			break
		}
	}
	s.cur = chosen
	return chosen
}

// active returns the per-layer active compact-module sets of the current
// rung, in the module layer's expected form.
func (s *Scheduler) active() [][]int {
	out := make([][]int, len(s.Sub.Layers))
	for l := range s.Sub.Layers {
		keep := s.ladder[s.cur][l]
		sel := append([]int(nil), s.ranked[l][:keep]...)
		sort.Ints(sel)
		out[l] = sel
	}
	return out
}

// Forward runs the sub-model restricted to the current rung's modules.
func (s *Scheduler) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	probs := s.Sub.Selector.Forward(x, false)
	h := s.Sub.Stem.Forward(x, train)
	act := s.active()
	for l, layer := range s.Sub.Layers {
		h = layer.Forward(h, s.Sub.compactGates(l, probs[l]), s.Sub.TopK, act[l], train)
	}
	return s.Sub.Head.Forward(h, train)
}
