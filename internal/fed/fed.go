// Package fed implements the federated adaptation substrate: the client
// fleet abstraction, local training/evaluation helpers, communication and
// simulated-time accounting, and the adaptation strategies compared in the
// paper's evaluation — No Adaptation, Local Adaptation, an AdaptiveNet-style
// multi-branch baseline, FedAvg, HeteroFL, and Nebula's online stage.
package fed

import (
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Client is one edge device: its local data stream and its runtime resource
// monitor.
type Client struct {
	Dev *data.DeviceData
	Mon *device.Monitor
}

// NewClients pairs a data fleet with sampled hardware.
func NewClients(rng *tensor.RNG, fleet []*data.DeviceData) []*Client {
	out := make([]*Client, len(fleet))
	for i, dev := range fleet {
		out[i] = &Client{Dev: dev, Mon: device.NewMonitor(rng, device.SampleClass(rng))}
	}
	return out
}

// Config holds the online-stage hyperparameters (paper Section 6.1).
type Config struct {
	LocalEpochs     int     // local epochs per communication round (3)
	FinetuneEpochs  int     // on-device adaptation epochs (10)
	LR              float32 // 0.001 in the paper; higher here (smaller models)
	DevicesPerRound int     // 25
	Rounds          int     // communication rounds per adaptation step
	TestPerDevice   int     // local test samples per device
	// DropoutProb is the probability that a sampled device becomes
	// unreachable during a round (straggler/failure injection); the round
	// proceeds with the survivors.
	DropoutProb float64
	// Workers bounds how many devices run concurrently inside a round
	// (training and evaluation fan-out). 0 means runtime.NumCPU. Results are
	// bitwise identical for every value, including 1 — see docs/PARALLEL.md.
	Workers int

	// Async enables the staleness-aware semi-async round engine
	// (docs/ASYNC.md): rounds tick at a per-round sim-time deadline, updates
	// arriving by the deadline aggregate immediately, stragglers carry their
	// work into the round it lands in (weight decayed by staleness), and
	// devices may join or leave between rounds. Arrival order is a pure
	// function of the seeded sim clock, never wall time, so async runs replay
	// bitwise and are worker-count independent like sync runs.
	Async bool
	// RoundDeadline is the per-round sim-time budget in seconds for async
	// mode. 0 auto-calibrates after the first async round to 2× the median
	// device time observed in that round.
	RoundDeadline float64
	// StalenessDecay ∈ (0,1] multiplies a late update's aggregation weight by
	// decay^staleness, where staleness is the number of rounds between launch
	// and landing. 0 means the default 0.5.
	StalenessDecay float64

	// WireCompress runs Nebula's simulated edge-cloud link through the
	// edgenet wire-format v2 codec (docs/PROTOCOL.md "Wire format v2"):
	// sub-model exchanges are chunk-quantized and delta-encoded against the
	// previous transfer, BytesDown/BytesUp charge the exact encoded wire
	// size, and devices train on the lossy reconstructions — so both the
	// traffic savings and the accuracy cost of compression are real,
	// measured effects. Off by default (exact float32 transfers, analytic
	// 4 B/element accounting).
	WireCompress bool
	// WireTopK in (0,1) keeps only that fraction of uplink delta
	// coordinates (deterministic top-k by |value|). 0 = dense uplink.
	WireTopK float64
}

// BatchSize is the mini-batch size of every strategy's training loops and of
// the simulated per-batch training latency (paper Section 6.1).
const BatchSize = 16

// DefaultConfig mirrors the paper's parameter settings.
func DefaultConfig() Config {
	return Config{
		LocalEpochs:     3,
		FinetuneEpochs:  10,
		LR:              0.01,
		DevicesPerRound: 25,
		Rounds:          10,
		TestPerDevice:   60,
	}
}

// collabLRScale shrinks the local LR of global-model federated training
// (FedAvg, HeteroFL): averaging stays coherent only when per-round client
// drift is small. Personalized local training (LA, AN, Nebula sub-models)
// uses the full LR.
const collabLRScale = 0.3

// Costs accumulates a strategy's resource usage across an adaptation run. It
// is the type a trace log folds to: for a traced strategy (Nebula) the live
// ledger and trace.Summarize over its log are the same fold of the same
// events.
type Costs = trace.Summary

// System is the common surface the experiments drive. One adaptation step =
// Adapt on the current fleet state; accuracy is the mean local-task accuracy
// over the probed clients.
type System interface {
	Name() string
	// Pretrain fits the cloud-side model(s) on proxy data.
	Pretrain(rng *tensor.RNG, proxy *data.Dataset)
	// Adapt runs one adaptation step over the fleet (the strategy decides
	// what that means: nothing, local fine-tuning, or federated rounds).
	Adapt(rng *tensor.RNG, clients []*Client)
	// LocalAccuracy evaluates each client's serving model on a fresh sample
	// of its current local task and returns the mean accuracy.
	LocalAccuracy(clients []*Client) float64
	// Costs returns accumulated communication/time accounting.
	Costs() Costs
}

// --- shared helpers -------------------------------------------------------

// TrainLayer runs mini-batch cross-entropy training on a model — a plain
// network, one branch of a MultiBranch, or a Nebula sub-model (whose selector
// stays frozen): SGD with momentum, gradients clipped to norm 5. Parameters
// without a gradient accumulator (a parked sub-model's) get one first.
// afterBackward, when non-nil, sees the parameters after each backward pass
// and before clipping; FedProx's proximal step is its one user.
func TrainLayer(rng *tensor.RNG, m nn.Layer, ds *data.Dataset, epochs int, lr float32, batch int, afterBackward func(params []*nn.Param)) {
	trainParams(rng, m, m.Params(), ds, epochs, lr, batch, afterBackward)
}

// trainParams is TrainLayer on m's parameter list params, for a caller that
// already holds it.
func trainParams(rng *tensor.RNG, m nn.Layer, params []*nn.Param, ds *data.Dataset, epochs int, lr float32, batch int, afterBackward func(params []*nn.Param)) {
	if ds.Len() == 0 {
		return
	}
	opt := nn.NewSGD(lr, 0.9, 1e-4)
	defer opt.Release()
	nn.EnsureGrads(params)
	for e := 0; e < epochs; e++ {
		ds.Batches(rng, batch, func(x *tensor.Tensor, y []int) {
			logits := m.Forward(x, true)
			_, grad := nn.SoftmaxCrossEntropy(logits, y)
			m.Backward(grad)
			if afterBackward != nil {
				afterBackward(params)
			}
			nn.ClipGradNorm(params, 5)
			opt.Step(params)
		})
	}
}

// EvalLayer returns a model's accuracy on a dataset.
func EvalLayer(m nn.Layer, ds *data.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	ds.InOrder(128, func(x *tensor.Tensor, y []int) {
		logits := m.Forward(x, false)
		for b := range y {
			if logits.ArgMaxRow(b) == y[b] {
				correct++
			}
		}
	})
	return float64(correct) / float64(ds.Len())
}

// trainTime returns the simulated seconds a client spends on local training:
// batches × epochs × per-batch latency under the current resource profile.
func trainTime(p device.Profile, fwdFlopsPerSample, samples, epochs int) float64 {
	if samples == 0 {
		return 0
	}
	batches := (samples + BatchSize - 1) / BatchSize
	return float64(epochs*batches) * p.TrainBatchLatency(fwdFlopsPerSample, BatchSize)
}

// meanLocalAccuracyLayer evaluates one shared model on every client's local
// test distribution. Devices evaluate concurrently; each worker clones the
// model the first time it is used (Forward mutates activation caches), and
// the accuracy mean is reduced in canonical device order so the float64
// result is identical for any worker count.
func meanLocalAccuracyLayer(m nn.Layer, clients []*Client, testN, workers int) float64 {
	accs := make([]float64, len(clients))
	clones := make([]nn.Layer, tensor.WorkerCount(workers, len(clients)))
	tensor.ParallelForWorkers(workers, len(clients), func(w, i int) {
		if clones[w] == nil {
			clones[w] = nn.CloneLayer(m)
		}
		accs[i] = EvalLayer(clones[w], clients[i].Dev.TestSet(testN))
	})
	return mean(accs)
}

// mean is the average of xs, summed in slice (device) order; 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// sampleClients picks k distinct clients. The result is always a fresh slice,
// never an alias of clients: callers reorder and truncate their sample (e.g.
// dropping unreachable devices), and an aliased return would let that
// mutation reorder the shared fleet and silently perturb canonical device
// order for every later round.
func sampleClients(rng *tensor.RNG, clients []*Client, k int) []*Client {
	if k >= len(clients) {
		return append([]*Client(nil), clients...)
	}
	idx := rng.Sample(len(clients), k)
	out := make([]*Client, k)
	for i, j := range idx {
		out[i] = clients[j]
	}
	return out
}

// modelBytes is the wire size of a model's parameters and states.
func modelBytes(m nn.Layer) int64 {
	return nn.BytesOf(m.Params(), nn.LayerStates(m))
}
