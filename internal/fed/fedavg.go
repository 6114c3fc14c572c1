package fed

import (
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// FedAvg is the classical federated-averaging baseline: every sampled client
// trains the full model locally and the server replaces the global model
// with the sample-weighted average of the client models.
type FedAvg struct {
	Task   *Task
	global nn.Layer
	cfg    Config
	costs  Costs
	// Mu > 0 adds the FedProx proximal term μ·(w − w_global) to local
	// training gradients (client-drift mitigation under non-IID data).
	Mu float32
}

// NewFedAvg builds the FA strategy.
func NewFedAvg(task *Task, cfg Config) *FedAvg {
	return &FedAvg{Task: task, cfg: cfg}
}

func (s *FedAvg) Name() string { return "FA" }

// Pretrain fits the global model on proxy data.
func (s *FedAvg) Pretrain(rng *tensor.RNG, proxy *data.Dataset) {
	s.global = s.Task.BuildFull(rng, 1.0)
	TrainLayer(rng, s.global, proxy, PretrainEpochs, s.cfg.LR, s.cfg.BatchSize, nil)
}

// Adapt runs cfg.Rounds communication rounds.
func (s *FedAvg) Adapt(rng *tensor.RNG, clients []*Client) {
	for r := 0; r < s.cfg.Rounds; r++ {
		s.round(rng, clients)
	}
}

// Round runs exactly one communication round (used directly by the
// convergence-speed experiments).
func (s *FedAvg) Round(rng *tensor.RNG, clients []*Client) {
	s.round(rng, clients)
}

func (s *FedAvg) round(rng *tensor.RNG, clients []*Client) {
	part := sampleClients(rng, clients, s.cfg.DevicesPerRound)
	gp := s.global.Params()
	gs := nn.LayerStates(s.global)
	sumVec := make([]float32, nn.VectorLen(gp, gs))
	bytes := modelBytes(s.global)
	fwd, _ := nn.ForwardCost(s.global, s.Task.InElems())
	var prox func([]*nn.Param)
	if s.Mu > 0 {
		prox = proxStep(nn.FlattenVector(gp, nil), s.Mu)
	}

	// Coordinator prep: dropout rolls and per-device streams off the master
	// stream in canonical order.
	n := len(part)
	drop := make([]bool, n)
	for i := range part {
		if s.cfg.DropoutProb > 0 {
			drop[i] = rng.Float64() < s.cfg.DropoutProb
		}
	}
	streams := splitStreams(rng, n)

	// Parallel phase: each device trains a private clone of the global model
	// (read-only during the round) against its own stream.
	type result struct {
		vec []float32
		w   float64
		t   float64
	}
	res := make([]result, n)
	forEachDevice(s.cfg.Workers, n, func(i int) {
		if drop[i] {
			return
		}
		c := part[i]
		local := nn.CloneLayer(s.global)
		TrainLayer(streams[i], local, c.Dev.Train, s.cfg.LocalEpochs, s.cfg.LR*s.cfg.collabScale(), s.cfg.BatchSize, prox)
		res[i].vec = nn.FlattenVector(local.Params(), nn.LayerStates(local))
		res[i].w = float64(c.Dev.Train.Len())
		p := c.Mon.Profile()
		res[i].t = p.TransferTime(bytes)*2 + trainTime(p, fwd, c.Dev.Train.Len(), s.cfg.LocalEpochs, s.cfg.BatchSize)
	})

	// Canonical reduce: the weighted sum accumulates in device order, so the
	// float32 aggregation is bit-identical to the serial loop's.
	var totalW, slot float64
	for i := range res {
		if drop[i] {
			continue
		}
		r := &res[i]
		s.costs.BytesDown += bytes
		s.costs.BytesUp += bytes
		totalW += r.w
		for j, v := range r.vec {
			sumVec[j] += float32(r.w) * v
		}
		if r.t > slot {
			slot = r.t
		}
	}
	if totalW > 0 {
		inv := float32(1.0 / totalW)
		for i := range sumVec {
			sumVec[i] *= inv
		}
		nn.LoadVector(sumVec, gp, gs)
	}
	s.costs.SimTime += slot
	s.costs.Rounds++
}

// LocalAccuracy evaluates the single global model on each client's task.
func (s *FedAvg) LocalAccuracy(clients []*Client) float64 {
	return meanLocalAccuracyLayer(s.global, clients, s.cfg.TestPerDevice, s.cfg.Workers)
}

// Costs returns accumulated accounting.
func (s *FedAvg) Costs() Costs { return s.costs }

// proxStep is FedProx's proximal term as a TrainLayer hook: every gradient
// gains μ·(w − anchor), penalizing drift from anchor — the flattened global
// parameters the round started from.
func proxStep(anchor []float32, mu float32) func([]*nn.Param) {
	return func(params []*nn.Param) {
		off := 0
		for _, p := range params {
			for i := range p.W.Data {
				p.G.Data[i] += mu * (p.W.Data[i] - anchor[off+i])
			}
			off += p.W.Len()
		}
	}
}

// Global exposes the aggregated model.
func (s *FedAvg) Global() nn.Layer { return s.global }
