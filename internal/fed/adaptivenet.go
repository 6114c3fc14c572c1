package fed

import (
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// MultiBranch is the AdaptiveNet-style baseline model: a trunk of stages
// with an early-exit classification head after every stage. A device picks
// the deepest branch (prefix + its exit) that fits its latency budget and
// fine-tunes that branch locally — post-deployment architecture adaptation
// without cloud collaboration.
type MultiBranch struct {
	Stages []nn.Layer
	Exits  []nn.Layer
}

// NewMultiBranchMLP builds an MLP trunk with nStages hidden stages.
func NewMultiBranchMLP(rng *tensor.RNG, in, hidden, classes, nStages int) *MultiBranch {
	mb := &MultiBranch{}
	prev := in
	for s := 0; s < nStages; s++ {
		mb.Stages = append(mb.Stages, nn.NewSequential(nn.NewDense(rng, prev, hidden), nn.NewReLU()))
		mb.Exits = append(mb.Exits, nn.NewDense(rng, hidden, classes))
		prev = hidden
	}
	return mb
}

// NewMultiBranchCNN builds a conv trunk: one residual stage per channel
// count (downsampling after the first), each followed by a GAP+dense exit.
func NewMultiBranchCNN(rng *tensor.RNG, inC, side int, channels []int, classes int) *MultiBranch {
	mb := &MultiBranch{}
	prev := inC
	for i, ch := range channels {
		stride := 1
		if i > 0 {
			stride = 2
		}
		mb.Stages = append(mb.Stages, nn.NewSequential(nn.ResNetBlock(rng, prev, ch, stride), nn.NewReLU()))
		mb.Exits = append(mb.Exits, nn.NewSequential(nn.NewGlobalAvgPool(), nn.NewDense(rng, ch, classes)))
		prev = ch
	}
	return mb
}

// NumBranches returns the branch count.
func (m *MultiBranch) NumBranches() int { return len(m.Stages) }

// ForwardBranch runs the trunk up to branch b (inclusive) and its exit.
func (m *MultiBranch) ForwardBranch(x *tensor.Tensor, b int, train bool) *tensor.Tensor {
	h := x
	for s := 0; s <= b; s++ {
		h = m.Stages[s].Forward(h, train)
	}
	return m.Exits[b].Forward(h, train)
}

// BackwardBranch propagates through exit b and the trunk prefix.
func (m *MultiBranch) BackwardBranch(grad *tensor.Tensor, b int) {
	g := m.Exits[b].Backward(grad)
	for s := b; s >= 0; s-- {
		g = m.Stages[s].Backward(g)
	}
}

// BranchParams returns the parameters of branch b: trunk prefix plus exit.
func (m *MultiBranch) BranchParams(b int) []*nn.Param {
	var ps []*nn.Param
	for s := 0; s <= b; s++ {
		ps = append(ps, m.Stages[s].Params()...)
	}
	return append(ps, m.Exits[b].Params()...)
}

// Params returns all parameters (every stage and exit).
func (m *MultiBranch) Params() []*nn.Param {
	var ps []*nn.Param
	for _, s := range m.Stages {
		ps = append(ps, s.Params()...)
	}
	for _, e := range m.Exits {
		ps = append(ps, e.Params()...)
	}
	return ps
}

// BranchCost returns per-sample forward FLOPs of branch b.
func (m *MultiBranch) BranchCost(inElems, b int) int {
	total := 0
	cur := inElems
	for s := 0; s <= b; s++ {
		if c, ok := m.Stages[s].(nn.Coster); ok {
			f, out := c.Cost(cur)
			total += f
			if out > 0 {
				cur = out
			}
		}
	}
	if c, ok := m.Exits[b].(nn.Coster); ok {
		f, _ := c.Cost(cur)
		total += f
	}
	return total
}

// BranchBytes returns the wire size of branch b's parameters and states.
func (m *MultiBranch) BranchBytes(b int) int64 {
	n := nn.ParamCount(m.BranchParams(b))
	for s := 0; s <= b; s++ {
		for _, st := range nn.LayerStates(m.Stages[s]) {
			n += st.Len()
		}
	}
	for _, st := range nn.LayerStates(m.Exits[b]) {
		n += st.Len()
	}
	return int64(n) * 4
}

// Clone deep-copies the multi-branch model.
func (m *MultiBranch) Clone() *MultiBranch {
	c := &MultiBranch{}
	for _, s := range m.Stages {
		c.Stages = append(c.Stages, nn.CloneLayer(s))
	}
	for _, e := range m.Exits {
		c.Exits = append(c.Exits, nn.CloneLayer(e))
	}
	return c
}

// TrainAllExits pre-trains the trunk with the summed CE of every exit
// (deep-supervision), so every branch is a usable classifier.
func (m *MultiBranch) TrainAllExits(rng *tensor.RNG, ds *data.Dataset, epochs int, lr float32, batch int) {
	opt := nn.NewAdam(lr)
	defer opt.Release()
	params := m.Params()
	for e := 0; e < epochs; e++ {
		ds.Batches(rng, batch, func(x *tensor.Tensor, y []int) {
			// Forward all stages once, caching intermediate activations, and
			// backprop each exit into the trunk.
			acts := make([]*tensor.Tensor, len(m.Stages))
			h := x
			for s := range m.Stages {
				h = m.Stages[s].Forward(h, true)
				acts[s] = h
			}
			// Exit gradients accumulate into the trunk from deepest to
			// shallowest so each stage's Backward runs once per exit path.
			// Simpler and correct: backprop each branch independently; the
			// stage caches are from the single forward, reused per exit.
			for b := len(m.Exits) - 1; b >= 0; b-- {
				logits := m.Exits[b].Forward(acts[b], true)
				_, grad := nn.SoftmaxCrossEntropy(logits, y)
				g := m.Exits[b].Backward(grad)
				for s := b; s >= 0; s-- {
					g = m.Stages[s].Backward(g)
				}
			}
			nn.ClipGradNorm(params, 5)
			opt.Step(params)
		})
	}
}

// PickBranch returns the deepest branch whose inference latency under the
// profile stays below latencyBudget seconds (always at least branch 0).
func (m *MultiBranch) PickBranch(p device.Profile, inElems int, latencyBudget float64) int {
	best := 0
	for b := 0; b < m.NumBranches(); b++ {
		if p.InferenceLatency(m.BranchCost(inElems, b)) <= latencyBudget {
			best = b
		}
	}
	return best
}

// branchModel adapts one branch to the nn.Layer interface for the shared
// train/eval helpers.
type branchModel struct {
	mb *MultiBranch
	b  int
}

func (bm branchModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return bm.mb.ForwardBranch(x, bm.b, train)
}
func (bm branchModel) Backward(grad *tensor.Tensor) *tensor.Tensor {
	bm.mb.BackwardBranch(grad, bm.b)
	return nil
}
func (bm branchModel) Params() []*nn.Param { return bm.mb.BranchParams(bm.b) }
