package device

import (
	"repro/internal/nn"
)

// Profile is a point-in-time snapshot of a device's available resources: the
// output of the paper's local resource profiler and the constraint input to
// personalized sub-model derivation (Eq. 2's L_j vector).
type Profile struct {
	ComputeFLOPS float64 // effective compute after contention
	MemoryBytes  int64   // memory available to the learning workload
	BandwidthBps float64 // current network bandwidth
}

// ContentionFactor models inference/training slowdown from n co-running
// background processes competing for the device. Calibrated so that 3
// background processes give ≈5.06× latency, the paper's Figure 1(b)
// measurement on Jetson Nano; 0 gives 1×.
func ContentionFactor(backgroundProcs int) float64 {
	if backgroundProcs <= 0 {
		return 1
	}
	return 1 + 1.3533*float64(backgroundProcs)
}

// InferenceLatency returns seconds to run one forward pass of a model with
// the given per-sample FLOPs under the profile.
func (p Profile) InferenceLatency(flops int) float64 {
	if p.ComputeFLOPS <= 0 {
		return 0
	}
	return float64(flops) / p.ComputeFLOPS
}

// TrainBatchLatency returns seconds for one training step on batchSize
// samples (3× forward FLOPs per sample — forward, input grads, weight
// grads).
func (p Profile) TrainBatchLatency(fwdFlopsPerSample, batchSize int) float64 {
	return float64(3*fwdFlopsPerSample*batchSize) / p.ComputeFLOPS
}

// TransferTime returns seconds to move the given bytes over the link.
func (p Profile) TransferTime(bytes int64) float64 {
	if p.BandwidthBps <= 0 {
		return 0
	}
	return float64(bytes*8) / p.BandwidthBps
}

// TrainMemoryBytes converts a TrainCost element footprint into bytes,
// including optimizer state (momentum ≈ one extra copy of the parameters is
// already folded into TrainCost's 2×params term) and the framework's fixed
// overhead.
func TrainMemoryBytes(memElems int, batchSize int) int64 {
	const frameworkOverhead = 48 << 20 // resident interpreter/runtime
	return int64(memElems)*4*int64(batchSize) + frameworkOverhead
}

// InferenceMemoryBytes estimates inference peak memory: parameters plus two
// activation buffers.
func InferenceMemoryBytes(model nn.Layer, inElems int) int64 {
	const frameworkOverhead = 24 << 20
	_, act := nn.ForwardCost(model, inElems)
	params := nn.ParamCount(model.Params())
	return int64(params+2*act)*4 + frameworkOverhead
}

// ModelCost bundles the static resource costs of a model, used both by the
// cloud (to pre-compute module costs) and the experiments.
type ModelCost struct {
	Params     int
	Bytes      int64 // wire size of parameters
	FwdFLOPs   int   // per-sample forward FLOPs
	TrainFLOPs int   // per-sample training FLOPs
	TrainMemEl int   // training memory footprint in elements per sample
}

// CostOf computes a model's static resource costs for per-sample input size
// inElems.
func CostOf(model nn.Layer, inElems int) ModelCost {
	params := nn.ParamCount(model.Params())
	fwd, _ := nn.ForwardCost(model, inElems)
	tr, mem := nn.TrainCost(model, inElems)
	return ModelCost{
		Params:     params,
		Bytes:      int64(params) * 4,
		FwdFLOPs:   fwd,
		TrainFLOPs: tr,
		TrainMemEl: mem,
	}
}
