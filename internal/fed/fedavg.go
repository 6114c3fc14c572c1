package fed

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// FedAvg is the classical federated-averaging baseline: every sampled client
// trains the full model locally and the server replaces the global model
// with the sample-weighted average of the client models.
type FedAvg struct {
	cloudModel
	// Mu > 0 adds the FedProx proximal term μ·(w − w_global) to local
	// training gradients (client-drift mitigation under non-IID data).
	Mu float32
}

// NewFedAvg builds the FA strategy.
func NewFedAvg(task *Task, cfg Config) *FedAvg {
	return &FedAvg{cloudModel: cloudModel{Task: task, cfg: cfg}}
}

func (s *FedAvg) Name() string { return "FA" }

// Adapt runs cfg.Rounds communication rounds.
func (s *FedAvg) Adapt(rng *tensor.RNG, clients []*Client) {
	for r := 0; r < s.cfg.Rounds; r++ {
		s.Round(rng, clients)
	}
}

// Round runs exactly one communication round (used directly by the
// convergence-speed experiments): every surviving device trains a private
// clone of the global model, and the global model becomes their
// sample-weighted average.
func (s *FedAvg) Round(rng *tensor.RNG, clients []*Client) {
	gp, gs := s.global.Params(), nn.LayerStates(s.global)
	var prox func([]*nn.Param)
	if s.Mu > 0 {
		prox = proxStep(nn.FlattenVector(gp, nil), s.Mu)
	}
	part, trained := s.globalRound(rng, clients, prox, func(*tensor.RNG, *Client) nn.Layer {
		return nn.CloneLayer(s.global)
	})
	// The weighted sum accumulates in device order, so the float32
	// aggregation is bit-identical for any worker count.
	sumVec := make([]float32, nn.VectorLen(gp, gs))
	var vec []float32
	var totalW float64
	for i, m := range trained {
		if m == nil {
			continue
		}
		w := float64(part[i].Dev.Train.Len())
		totalW += w
		vec = nn.AppendVector(vec[:0], m.Params(), nn.LayerStates(m))
		for j, v := range vec {
			sumVec[j] += float32(float32(w) * v)
		}
	}
	if totalW > 0 {
		inv := float32(1.0 / totalW)
		for i := range sumVec {
			sumVec[i] *= inv
		}
		nn.LoadVector(sumVec, gp, gs)
	}
}

// proxStep is FedProx's proximal term as a TrainLayer hook: every gradient
// gains μ·(w − anchor), penalizing drift from anchor — the flattened global
// parameters the round started from.
func proxStep(anchor []float32, mu float32) func([]*nn.Param) {
	return func(params []*nn.Param) {
		off := 0
		for _, p := range params {
			for i := range p.W.Data {
				p.G.Data[i] += float32(mu * (p.W.Data[i] - anchor[off+i]))
			}
			off += p.W.Len()
		}
	}
}
