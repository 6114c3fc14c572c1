package modular

import (
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/solve"
	"repro/internal/tensor"
)

// The offline stages' fixed hyperparameters at simulation scale: Adam's
// learning rate, the mini-batch size, λ for the load-balancing loss of
// vanilla end-to-end training, and λ for the KL guidance term of
// ability-enhancing fine-tuning.
const (
	trainLR   float32 = 0.005
	batchSize         = 16
	lbWeight  float32 = 0.1
	klWeight  float32 = 0.5
)

// TrainConfig controls the offline on-cloud training stages.
type TrainConfig struct {
	Epochs int
	// GroupSize defines sub-tasks as contiguous class groups of this size.
	GroupSize int
	// LoadCap (κ₁) and MaxModulesPerTask (κ₂) are the Eq. 1 constraints.
	LoadCap           float64
	MaxModulesPerTask int
}

// DefaultTrainConfig mirrors the paper's offline-stage hyperparameters at
// simulation scale.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:            3,
		GroupSize:         2,
		LoadCap:           0.5,
		MaxModulesPerTask: 4,
	}
}

// TrainEndToEnd performs the vanilla end-to-end pre-training of Section 4.3:
// cross-entropy plus the load-balancing term, noisy top-k gating. Returns the
// per-epoch mean training loss. The stage ends its own bout: the optimizer's
// moments and all the model borrowed go back to the arena as it returns
// (Model.Park), whether or not the caller keeps the model.
func (m *Model) TrainEndToEnd(rng *tensor.RNG, ds *data.Dataset, cfg TrainConfig) []float64 {
	opt := nn.NewAdam(trainLR)
	defer opt.Release()
	defer m.Park()
	params := m.Params()
	nn.EnsureGrads(params)
	losses := make([]float64, 0, cfg.Epochs)
	for e := 0; e < cfg.Epochs; e++ {
		var sum float64
		var batches int
		ds.Batches(rng, batchSize, func(x *tensor.Tensor, y []int) {
			logits := m.Forward(x, nil, true)
			loss, grad := nn.SoftmaxCrossEntropy(logits, y)
			lb := m.Backward(grad, lbWeight)
			nn.ClipGradNorm(params, 5)
			opt.Step(params)
			sum += loss + float64(float64(lbWeight)*lb)
			batches++
		})
		if batches > 0 {
			losses = append(losses, sum/float64(batches))
		}
	}
	return losses
}

// Offline runs the offline on-cloud stage on proxy: end-to-end training for
// cfg.Epochs, then, when enhance is set, ability-enhancing for
// ⌈cfg.Epochs/2⌉ epochs.
func (m *Model) Offline(rng *tensor.RNG, proxy *data.Dataset, cfg TrainConfig, enhance bool) {
	m.TrainEndToEnd(rng, proxy, cfg)
	if enhance {
		cfg.Epochs = (cfg.Epochs + 1) / 2
		m.AbilityEnhance(rng, proxy, cfg)
	}
}

// SubTaskMatrix builds the sub-task mapping matrix H per layer: h[t][n] is
// the mean selector probability of module n over sub-task t's samples (its
// "load"). Sub-tasks are contiguous class groups of cfg.GroupSize.
func (m *Model) SubTaskMatrix(ds *data.Dataset, groupSize int) [][][]float64 {
	t := data.NumSubTasks(ds.NumClasses, groupSize)
	h := make([][][]float64, len(m.Layers))
	counts := make([]int, t)
	for l := range h {
		h[l] = make([][]float64, t)
		for ti := range h[l] {
			h[l][ti] = make([]float64, m.Layers[l].N())
		}
	}
	// One selector pass over the dataset, grouped by sub-task.
	ds.InOrder(64, func(x *tensor.Tensor, y []int) {
		probs := m.Selector.Forward(x, false)
		for b, label := range y {
			ti := data.SubTaskOf(label, groupSize)
			counts[ti]++
			for l := range m.Layers {
				for n, p := range probs[l][b] {
					h[l][ti][n] += float64(p)
				}
			}
		}
	})
	for ti, c := range counts {
		if c == 0 {
			continue
		}
		for l := range h {
			for n := range h[l][ti] {
				h[l][ti][n] /= float64(c)
			}
		}
	}
	return h
}

// AbilityEnhance runs the module ability-enhancing algorithm of Section 4.3:
// build H from the current selector, solve the Eq. 1 assignment per layer,
// and fine-tune with CE + λ·KL(g_label ‖ g) so each module focuses on its
// assigned sub-tasks. Returns the per-layer assignment masks. Like
// TrainEndToEnd it parks the model as it returns.
func (m *Model) AbilityEnhance(rng *tensor.RNG, ds *data.Dataset, cfg TrainConfig) [][][]bool {
	h := m.SubTaskMatrix(ds, cfg.GroupSize)
	masks := make([][][]bool, len(m.Layers))
	targets := make([][][]float32, len(m.Layers)) // per layer, per sub-task: g_label
	for l := range m.Layers {
		masks[l] = assign(h[l], cfg)
		targets[l] = make([][]float32, len(h[l]))
		for ti := range h[l] {
			g := make([]float32, m.Layers[l].N())
			var sum float64
			for n := range g {
				if masks[l][ti][n] {
					v := h[l][ti][n]
					if v <= 0 {
						v = 1e-6
					}
					g[n] = float32(v)
					sum += v
				}
			}
			if sum > 0 {
				for n := range g {
					g[n] /= float32(sum)
				}
			}
			targets[l][ti] = g
		}
	}

	// Fine-tune: CE through the full model plus KL guidance on the selector.
	opt := nn.NewAdam(trainLR)
	defer opt.Release()
	defer m.Park()
	params := m.Params()
	nn.EnsureGrads(params)
	for e := 0; e < cfg.Epochs; e++ {
		ds.Batches(rng, batchSize, func(x *tensor.Tensor, y []int) {
			logits := m.Forward(x, nil, true)
			_, grad := nn.SoftmaxCrossEntropy(logits, y)
			m.Backward(grad, 0)
			// KL(g_label ‖ softmax(z)) gradient w.r.t. logits: (g − g_label).
			batch := len(y)
			dLogits := make([]*tensor.Tensor, len(m.Layers))
			for l := range m.Layers {
				p := m.Selector.probs[l]
				dz := tensor.New(p.Shape()...)
				for b, label := range y {
					ti := data.SubTaskOf(label, cfg.GroupSize)
					tgt := targets[l][ti]
					prow := p.Row(b)
					dzrow := dz.Row(b)
					for n := range prow {
						dzrow[n] = klWeight * (prow[n] - tgt[n]) / float32(batch)
					}
				}
				dLogits[l] = dz
			}
			m.Selector.BackwardLogits(dLogits)
			nn.ClipGradNorm(params, 5)
			opt.Step(params)
		})
	}
	return masks
}

// assign adapts solve.AssignSubTasks to this package's config.
func assign(h [][]float64, cfg TrainConfig) [][]bool {
	return solve.AssignSubTasks(h, solve.AssignmentConfig{
		LoadCap:           cfg.LoadCap,
		MaxModulesPerTask: cfg.MaxModulesPerTask,
	})
}
