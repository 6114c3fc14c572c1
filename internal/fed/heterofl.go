package fed

import (
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// HeteroFL is the resource-aware federated baseline: each client trains a
// width-sliced nested sub-model (the first ⌈p·n⌉ units of every hidden
// dimension) and the server averages each parameter coordinate over the
// clients whose slice covers it.
type HeteroFL struct {
	Task   *Task
	global nn.Layer
	cfg    Config
	costs  Costs
	// Rates is the nested width set clients are mapped to by capability.
	Rates []float64
	rate  map[int]float64
	local map[int]nn.Layer // each client's current sliced model (for eval)
}

// NewHeteroFL builds the HFL strategy with the standard rate ladder.
func NewHeteroFL(task *Task, cfg Config) *HeteroFL {
	// The rate ladder is clamped at 0.5: the simulation-scale base models
	// are already tiny, and HeteroFL's thinner tiers (1/8-width) would leave
	// 1-2 channels per layer — a degenerate regime the paper's full-size
	// models never enter.
	return &HeteroFL{
		Task:  task,
		cfg:   cfg,
		Rates: []float64{1.0, 0.75, 0.5},
		rate:  map[int]float64{},
		local: map[int]nn.Layer{},
	}
}

func (s *HeteroFL) Name() string { return "HFL" }

// Pretrain fits the full-width global model.
func (s *HeteroFL) Pretrain(rng *tensor.RNG, proxy *data.Dataset) {
	s.global = s.Task.BuildFull(rng, 1.0)
	TrainLayer(rng, s.global, proxy, PretrainEpochs, s.cfg.LR, s.cfg.BatchSize, nil)
}

// clientRate maps a device's compute capability to the nested rate ladder.
func (s *HeteroFL) clientRate(c *Client) float64 {
	if r, ok := s.rate[c.Dev.ID]; ok {
		return r
	}
	flops := c.Mon.Class.ComputeFLOPS
	top := device.ClassByName("flagship-soc").ComputeFLOPS
	rel := flops / top
	r := s.Rates[len(s.Rates)-1]
	switch {
	case rel >= 0.3:
		r = s.Rates[0]
	case rel >= 0.15 && len(s.Rates) > 1:
		r = s.Rates[1]
	}
	s.rate[c.Dev.ID] = r
	return r
}

// sliceDown copies the covered prefix of every global parameter/state into a
// freshly built rate-p model.
func (s *HeteroFL) sliceDown(rng *tensor.RNG, rate float64) nn.Layer {
	m := s.Task.BuildFull(rng, rate)
	gp, gs := s.global.Params(), nn.LayerStates(s.global)
	mp, ms := m.Params(), nn.LayerStates(m)
	for i := range mp {
		nn.CopyOverlap(mp[i].W, gp[i].W)
	}
	for i := range ms {
		nn.CopyOverlap(ms[i], gs[i])
	}
	return m
}

// Adapt runs cfg.Rounds HeteroFL communication rounds.
func (s *HeteroFL) Adapt(rng *tensor.RNG, clients []*Client) {
	for r := 0; r < s.cfg.Rounds; r++ {
		s.round(rng, clients)
	}
}

// Round runs one communication round.
func (s *HeteroFL) Round(rng *tensor.RNG, clients []*Client) { s.round(rng, clients) }

func (s *HeteroFL) round(rng *tensor.RNG, clients []*Client) {
	part := sampleClients(rng, clients, s.cfg.DevicesPerRound)
	gp, gs := s.global.Params(), nn.LayerStates(s.global)
	sums := make([]*tensor.Tensor, len(gp))
	cnts := make([]*tensor.Tensor, len(gp))
	for i, p := range gp {
		sums[i] = tensor.New(p.W.Shape()...)
		cnts[i] = tensor.New(p.W.Shape()...)
	}
	stateSums := make([]*tensor.Tensor, len(gs))
	stateCnts := make([]*tensor.Tensor, len(gs))
	for i, st := range gs {
		stateSums[i] = tensor.New(st.Shape()...)
		stateCnts[i] = tensor.New(st.Shape()...)
	}
	// Coordinator prep: dropout rolls, per-device streams, and the rate map
	// (clientRate caches into s.rate) in canonical order.
	n := len(part)
	drop := make([]bool, n)
	rates := make([]float64, n)
	for i, c := range part {
		if s.cfg.DropoutProb > 0 {
			drop[i] = rng.Float64() < s.cfg.DropoutProb
		}
		if !drop[i] {
			rates[i] = s.clientRate(c)
		}
	}
	streams := splitStreams(rng, n)

	// Parallel phase: slice, train, and cost each surviving device against
	// its own stream; the global model is only read.
	type result struct {
		local nn.Layer
		bytes int64
		t     float64
	}
	res := make([]result, n)
	forEachDevice(s.cfg.Workers, n, func(i int) {
		if drop[i] {
			return
		}
		c := part[i]
		local := s.sliceDown(streams[i], rates[i])
		bytes := modelBytes(local)
		TrainLayer(streams[i], local, c.Dev.Train, s.cfg.LocalEpochs, s.cfg.LR*s.cfg.collabScale(), s.cfg.BatchSize, nil)
		p := c.Mon.Profile()
		fwd, _ := nn.ForwardCost(local, s.Task.InElems())
		res[i] = result{local: local, bytes: bytes,
			t: p.TransferTime(bytes)*2 + trainTime(p, fwd, c.Dev.Train.Len(), s.cfg.LocalEpochs, s.cfg.BatchSize)}
	})

	// Canonical reduce: overlap accumulation runs in device order, keeping
	// the per-coordinate float32 sums identical to the serial loop's.
	var slot float64
	for i := range res {
		if drop[i] {
			continue
		}
		r := &res[i]
		s.costs.BytesDown += r.bytes
		s.costs.BytesUp += r.bytes
		s.local[part[i].Dev.ID] = r.local
		lp, ls := r.local.Params(), nn.LayerStates(r.local)
		for j := range lp {
			nn.AccumOverlap(sums[j], cnts[j], lp[j].W, 1)
		}
		for j := range ls {
			nn.AccumOverlap(stateSums[j], stateCnts[j], ls[j], 1)
		}
		if r.t > slot {
			slot = r.t
		}
	}
	// Per-coordinate average over covering clients; uncovered coordinates
	// keep their previous value.
	for i, p := range gp {
		for j := range p.W.Data {
			if cnts[i].Data[j] > 0 {
				p.W.Data[j] = sums[i].Data[j] / cnts[i].Data[j]
			}
		}
	}
	for i, st := range gs {
		for j := range st.Data {
			if stateCnts[i].Data[j] > 0 {
				st.Data[j] = stateSums[i].Data[j] / stateCnts[i].Data[j]
			}
		}
	}
	s.costs.SimTime += slot
	s.costs.Rounds++
}

// LocalAccuracy evaluates the aggregated full-width global model on each
// device's local task (the HeteroFL paper's evaluation protocol; devices
// with the full-rate slice serve exactly this model).
func (s *HeteroFL) LocalAccuracy(clients []*Client) float64 {
	return meanLocalAccuracyLayer(s.global, clients, s.cfg.TestPerDevice, s.cfg.Workers)
}

// Costs returns accumulated accounting.
func (s *HeteroFL) Costs() Costs { return s.costs }
