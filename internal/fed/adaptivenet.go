package fed

import (
	"slices"

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

// Branch returns branch b as a view over the model's own layers: stages
// 0..b then exit b. The capped slice makes append copy, so Stages is never
// written; training the view trains those layers in place.
func (m *MultiBranch) Branch(b int) nn.Layer {
	return nn.NewSequential(append(m.Stages[:b+1:b+1], m.Exits[b])...)
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

// Clone copies the multi-branch model's weights and states; TrainLayer arms
// the gradients of the one branch a device trains.
func (m *MultiBranch) Clone() *MultiBranch {
	c := &MultiBranch{}
	for _, s := range m.Stages {
		c.Stages = append(c.Stages, nn.CloneWeights(s))
	}
	for _, e := range m.Exits {
		c.Exits = append(c.Exits, nn.CloneWeights(e))
	}
	return c
}

// TrainAllExits pre-trains the trunk with the summed CE of every exit
// (deep-supervision), so every branch is a usable classifier. Like
// TrainLayer it ends its bout as it returns (nn.ReleaseBuffers).
func (m *MultiBranch) TrainAllExits(rng *tensor.RNG, ds *data.Dataset, epochs int, lr float32, batch int) {
	opt := nn.NewAdam(lr)
	defer opt.Release()
	defer nn.ReleaseBuffers(nn.NewSequential(slices.Concat(m.Stages, m.Exits)...))
	params := m.Params()
	nn.EnsureGrads(params)
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
		if f, _ := nn.ForwardCost(m.Branch(b), inElems); p.InferenceLatency(f) <= latencyBudget {
			best = b
		}
	}
	return best
}
