package fed

import (
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// HeteroFL is the resource-aware federated baseline: each client trains a
// width-sliced nested sub-model (the first ⌈p·n⌉ units of every hidden
// dimension) and the server averages each parameter coordinate over the
// clients whose slice covers it. Devices are evaluated on the aggregated
// full-width global model (the HeteroFL paper's protocol; devices with the
// full-rate slice serve exactly this model).
type HeteroFL struct {
	cloudModel
	rate map[int]float64
}

// NewHeteroFL builds the HFL strategy.
func NewHeteroFL(task *Task, cfg Config) *HeteroFL {
	return &HeteroFL{cloudModel: cloudModel{Task: task, cfg: cfg}, rate: map[int]float64{}}
}

func (s *HeteroFL) Name() string { return "HFL" }

// clientRate maps a device's compute capability to the nested width ladder
// {1, 0.75, 0.5}. The ladder is clamped at 0.5: the simulation-scale base
// models are already tiny, and HeteroFL's thinner tiers (1/8-width) would
// leave 1-2 channels per layer — a degenerate regime the paper's full-size
// models never enter.
func (s *HeteroFL) clientRate(c *Client) float64 {
	if r, ok := s.rate[c.Dev.ID]; ok {
		return r
	}
	flops := c.Mon.Class.ComputeFLOPS
	top := device.ClassByName("flagship-soc").ComputeFLOPS
	rel := flops / top
	r := 0.5
	switch {
	case rel >= 0.3:
		r = 1.0
	case rel >= 0.15:
		r = 0.75
	}
	s.rate[c.Dev.ID] = r
	return r
}

// sliceDown copies the covered prefix of every global parameter/state into a
// freshly built rate-p model.
func (s *HeteroFL) sliceDown(rng *tensor.RNG, rate float64) nn.Layer {
	m := s.Task.BuildFull(rng, rate)
	global := tensorsOf(s.global)
	for i, t := range tensorsOf(m) {
		nn.CopyOverlap(t, global[i])
	}
	return m
}

// tensorsOf lists a model's parameter weights, then its states.
func tensorsOf(m nn.Layer) []*tensor.Tensor {
	var ts []*tensor.Tensor
	for _, p := range m.Params() {
		ts = append(ts, p.W)
	}
	return append(ts, nn.LayerStates(m)...)
}

// Adapt runs cfg.Rounds HeteroFL communication rounds.
func (s *HeteroFL) Adapt(rng *tensor.RNG, clients []*Client) {
	for r := 0; r < s.cfg.Rounds; r++ {
		s.Round(rng, clients)
	}
}

// Round runs one communication round: every surviving device trains the
// global model sliced down to its rate, and each global coordinate becomes
// the average over the devices whose slice covers it.
func (s *HeteroFL) Round(rng *tensor.RNG, clients []*Client) {
	// Every rate is fixed here, on the coordinator (clientRate caches into
	// s.rate), so the device pool only reads the map.
	for _, c := range clients {
		s.clientRate(c)
	}
	_, trained := s.globalRound(rng, clients, nil, func(rng *tensor.RNG, c *Client) nn.Layer {
		return s.sliceDown(rng, s.rate[c.Dev.ID])
	})
	global := tensorsOf(s.global)
	sums := make([]*tensor.Tensor, len(global))
	cnts := make([]*tensor.Tensor, len(global))
	for i, t := range global {
		sums[i] = tensor.New(t.Shape()...)
		cnts[i] = tensor.New(t.Shape()...)
	}
	// Overlap accumulation runs in device order, keeping the per-coordinate
	// float32 sums identical for any worker count.
	for _, m := range trained {
		if m == nil {
			continue
		}
		for j, t := range tensorsOf(m) {
			nn.AccumOverlap(sums[j], cnts[j], t, 1)
		}
	}
	// Per-coordinate average over covering clients; uncovered coordinates
	// keep their previous value.
	for i, t := range global {
		for j := range t.Data {
			if cnts[i].Data[j] > 0 {
				t.Data[j] = sums[i].Data[j] / cnts[i].Data[j]
			}
		}
	}
}
