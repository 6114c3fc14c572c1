package fed

import (
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// --- The shared cloud model ----------------------------------------------

// cloudModel is the full-width cloud model that NA, LA, FA and HFL all start
// from: one pre-training on proxy data, one evaluation of the global model,
// one cost ledger and one federated round over the global model.
type cloudModel struct {
	Task   *Task
	cfg    Config
	costs  Costs
	global nn.Layer
}

// Pretrain fits the full-width cloud model on proxy data.
func (s *cloudModel) Pretrain(rng *tensor.RNG, proxy *data.Dataset) {
	s.global = s.Task.BuildFull(rng, 1.0)
	TrainLayer(rng, s.global, proxy, s.cfg.PretrainEpochs, s.cfg.LR, BatchSize, nil)
}

// LocalAccuracy evaluates the global model on every client's local task.
func (s *cloudModel) LocalAccuracy(clients []*Client) float64 {
	return meanLocalAccuracyLayer(s.global, clients, s.cfg.TestPerDevice, s.cfg.Workers)
}

// Costs returns accumulated accounting.
func (s *cloudModel) Costs() Costs { return s.costs }

// Global exposes the cloud model.
func (s *cloudModel) Global() nn.Layer { return s.global }

// globalRound runs the device half of one federated round over the global
// model. On the coordinator it samples the round's clients, rolls their
// dropouts and splits one stream per device, in that order. On the device
// pool each surviving device builds its local model with local (which may
// draw from the device's stream and only reads the global model), trains it
// at the collaborative LR with prox as the after-backward hook, and is
// charged the model both ways plus link and training time. trained[i] is
// part[i]'s trained model, nil for a device that dropped out; the caller
// folds them into the global model in device order.
func (s *cloudModel) globalRound(rng *tensor.RNG, clients []*Client, prox func([]*nn.Param), local func(*tensor.RNG, *Client) nn.Layer) (part []*Client, trained []nn.Layer) {
	part = sampleClients(rng, clients, s.cfg.DevicesPerRound)
	n := len(part)
	drop := make([]bool, n)
	for i := range part {
		if s.cfg.DropoutProb > 0 {
			drop[i] = rng.Float64() < s.cfg.DropoutProb
		}
	}
	streams := splitStreams(rng, nil, n)
	trained = make([]nn.Layer, n)
	ts := make([]float64, n)
	tensor.ParallelForWorkers(s.cfg.Workers, n, func(_, i int) {
		if drop[i] {
			return
		}
		c := part[i]
		m := local(streams[i], c)
		TrainLayer(streams[i], m, c.Dev.Train, s.cfg.LocalEpochs, s.cfg.LR*collabLRScale, BatchSize, prox)
		p := c.Mon.Profile()
		fwd, _ := nn.ForwardCost(m, s.Task.InElems())
		ts[i] = p.TransferTime(modelBytes(m))*2 + trainTime(p, fwd, c.Dev.Train.Len(), s.cfg.LocalEpochs)
		trained[i] = m
	})
	var slot float64
	for i, m := range trained {
		if m != nil {
			s.costs.BytesDown += modelBytes(m)
			s.costs.BytesUp += modelBytes(m)
			slot = max(slot, ts[i])
		}
	}
	s.costs.SimTime += slot
	s.costs.Rounds++
	return part, trained
}

// --- No Adaptation --------------------------------------------------------

// NoAdapt serves the pre-trained cloud model unchanged: the paper's NA
// baseline and the "static cloud model" line of Figure 1(a).
type NoAdapt struct{ cloudModel }

// NewNoAdapt builds the NA strategy.
func NewNoAdapt(task *Task, cfg Config) *NoAdapt {
	return &NoAdapt{cloudModel{Task: task, cfg: cfg}}
}

func (s *NoAdapt) Name() string { return "NA" }

// Adapt does nothing: the model is static, and nothing is communicated after
// deployment.
func (s *NoAdapt) Adapt(rng *tensor.RNG, clients []*Client) {}

// --- Local Adaptation -----------------------------------------------------

// LocalAdapt fine-tunes a per-device copy of the cloud model on local data
// with no collaboration: the paper's LA baseline and the "updated edge model
// (individual device)" line of Figure 1(a).
type LocalAdapt struct {
	cloudModel
	local map[int]nn.Layer
}

// NewLocalAdapt builds the LA strategy.
func NewLocalAdapt(task *Task, cfg Config) *LocalAdapt {
	return &LocalAdapt{cloudModel: cloudModel{Task: task, cfg: cfg}, local: map[int]nn.Layer{}}
}

func (s *LocalAdapt) Name() string { return "LA" }

// Adapt fine-tunes every client's private copy on its current local data.
// Devices run concurrently on derived streams; map writes and cost charges
// commit in canonical device order.
func (s *LocalAdapt) Adapt(rng *tensor.RNG, clients []*Client) {
	streams := splitStreams(rng, nil, len(clients))
	ts := make([]float64, len(clients))
	ms, fresh := serve(s.cfg.Workers, clients, s.local, s.cloneCloud, func(i int, m nn.Layer) {
		c := clients[i]
		TrainLayer(streams[i], m, c.Dev.Train, s.cfg.FinetuneEpochs, s.cfg.LR, BatchSize, nil)
		fwd, _ := nn.ForwardCost(m, s.Task.InElems())
		ts[i] = trainTime(c.Mon.Profile(), fwd, c.Dev.Train.Len(), s.cfg.FinetuneEpochs)
	})
	var slot float64
	for i, c := range clients {
		if fresh[i] {
			s.local[c.Dev.ID] = ms[i]
			s.costs.BytesDown += modelBytes(ms[i]) // one-time model download
		}
		slot = max(slot, ts[i])
	}
	s.costs.SimTime += slot // devices adapt in parallel
	s.costs.Rounds++
}

// LocalAccuracy evaluates each device's private model on its local task.
// Devices without a private copy evaluate a clone of the shared cloud model
// (Forward mutates activation caches, so workers must not share it).
func (s *LocalAdapt) LocalAccuracy(clients []*Client) float64 {
	accs := make([]float64, len(clients))
	serve(s.cfg.Workers, clients, s.local, s.cloneCloud, func(i int, m nn.Layer) {
		accs[i] = EvalLayer(m, clients[i].Dev.TestSet(s.cfg.TestPerDevice))
	})
	return mean(accs)
}

// cloneCloud is a device's private copy of the shared cloud model.
func (s *LocalAdapt) cloneCloud(int, *Client) nn.Layer { return nn.CloneLayer(s.global) }

// --- AdaptiveNet-style ----------------------------------------------------

// AdaptiveNet is the AN baseline: the cloud pre-trains a multi-branch model;
// each device picks the deepest branch fitting its latency budget and
// fine-tunes that branch locally. Resource-aware, but new knowledge never
// returns to the cloud.
type AdaptiveNet struct {
	Task          *Task
	cloud         *MultiBranch
	local         map[int]*MultiBranch
	branch        map[int]int
	latencyBudget float64
	cfg           Config
	costs         Costs
}

// NewAdaptiveNet builds the AN strategy.
func NewAdaptiveNet(task *Task, cfg Config) *AdaptiveNet {
	return &AdaptiveNet{Task: task, cfg: cfg, local: map[int]*MultiBranch{}, branch: map[int]int{}}
}

func (s *AdaptiveNet) Name() string { return "AN" }

// Pretrain trains all branches with deep supervision and fixes the latency
// budget: 1.5× the deepest branch's latency on an uncontended mid-tier SoC,
// so weaker or contended devices fall back to shallower branches.
func (s *AdaptiveNet) Pretrain(rng *tensor.RNG, proxy *data.Dataset) {
	s.cloud = s.Task.BuildBranchy(rng)
	s.cloud.TrainAllExits(rng, proxy, s.cfg.PretrainEpochs, s.cfg.LR, BatchSize)
	mid := device.ClassByName("mid-soc")
	deepest, _ := nn.ForwardCost(s.cloud.Branch(s.cloud.NumBranches()-1), s.Task.InElems())
	s.latencyBudget = 1.5 * float64(deepest) / mid.ComputeFLOPS
}

// Adapt (re-)selects each client's branch under its current resources and
// fine-tunes it locally. Devices run concurrently on derived streams; map
// writes and cost charges commit in canonical device order.
func (s *AdaptiveNet) Adapt(rng *tensor.RNG, clients []*Client) {
	streams := splitStreams(rng, nil, len(clients))
	ts := make([]float64, len(clients))
	bs := make([]int, len(clients))
	ms, fresh := serve(s.cfg.Workers, clients, s.local, s.cloneCloud, func(i int, m *MultiBranch) {
		c := clients[i]
		p := c.Mon.Profile()
		bs[i] = s.cloud.PickBranch(p, s.Task.InElems(), s.latencyBudget)
		branch := m.Branch(bs[i])
		TrainLayer(streams[i], branch, c.Dev.Train, s.cfg.FinetuneEpochs, s.cfg.LR, BatchSize, nil)
		f, _ := nn.ForwardCost(branch, s.Task.InElems())
		ts[i] = trainTime(p, f, c.Dev.Train.Len(), s.cfg.FinetuneEpochs)
	})
	var slot float64
	for i, c := range clients {
		if fresh[i] {
			s.local[c.Dev.ID] = ms[i]
			s.costs.BytesDown += modelBytes(s.cloud.Branch(s.cloud.NumBranches() - 1))
		}
		s.branch[c.Dev.ID] = bs[i]
		slot = max(slot, ts[i])
	}
	s.costs.SimTime += slot
	s.costs.Rounds++
}

// LocalAccuracy evaluates each device's chosen branch on its local task.
// Devices without a private copy evaluate the deepest branch of a clone of
// the shared cloud model (Forward mutates activation caches, so workers must
// not share it).
func (s *AdaptiveNet) LocalAccuracy(clients []*Client) float64 {
	bs := make([]int, len(clients))
	for i, c := range clients {
		bs[i] = s.cloud.NumBranches() - 1
		if b, ok := s.branch[c.Dev.ID]; ok {
			bs[i] = b
		}
	}
	accs := make([]float64, len(clients))
	serve(s.cfg.Workers, clients, s.local, s.cloneCloud, func(i int, m *MultiBranch) {
		accs[i] = EvalLayer(m.Branch(bs[i]), clients[i].Dev.TestSet(s.cfg.TestPerDevice))
	})
	return mean(accs)
}

// cloneCloud is a device's private copy of the shared cloud model.
func (s *AdaptiveNet) cloneCloud(int, *Client) *MultiBranch { return s.cloud.Clone() }

// Costs returns accumulated accounting.
func (s *AdaptiveNet) Costs() Costs { return s.costs }
