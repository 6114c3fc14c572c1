package device

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// These tests pin the cross-device cost-model relationships that Figures 8,
// 9 and 13 rely on: the same model must be proportionally slower on weaker
// hardware, and model size must translate monotonically into every resource
// dimension.

func TestLatencyScalesInverselyWithCompute(t *testing.T) {
	rng := tensor.NewRNG(1)
	model := nn.NewVGGLike(rng, 3, 8, []int{16, 32}, 10, 1.0)
	fwd, _ := nn.ForwardCost(model, 3*8*8)
	nano := Profile{ComputeFLOPS: JetsonNano().ComputeFLOPS}
	pi := Profile{ComputeFLOPS: RaspberryPi().ComputeFLOPS}
	ratio := pi.InferenceLatency(fwd) / nano.InferenceLatency(fwd)
	want := JetsonNano().ComputeFLOPS / RaspberryPi().ComputeFLOPS
	if math.Abs(ratio-want) > 1e-9 {
		t.Fatalf("latency ratio %v, want compute ratio %v", ratio, want)
	}
}

func TestCostMonotoneAcrossModelSizes(t *testing.T) {
	rng := tensor.NewRNG(2)
	var prev ModelCost
	for i, rate := range []float64{0.25, 0.5, 1.0} {
		m := nn.NewMLP(rng, 64, []int{128, 128}, 6, rate)
		c := CostOf(m, 64)
		if i > 0 {
			if c.Params <= prev.Params || c.FwdFLOPs <= prev.FwdFLOPs ||
				c.TrainFLOPs <= prev.TrainFLOPs || c.TrainMemEl <= prev.TrainMemEl ||
				c.Bytes <= prev.Bytes {
				t.Fatalf("cost not monotone at rate %v: %+v vs %+v", rate, c, prev)
			}
		}
		prev = c
	}
}

func TestTransferTimeScalesWithBandwidth(t *testing.T) {
	fast := Profile{BandwidthBps: 100e6}
	slow := Profile{BandwidthBps: 10e6}
	const bytes = 1 << 20
	if r := slow.TransferTime(bytes) / fast.TransferTime(bytes); math.Abs(r-10) > 1e-9 {
		t.Fatalf("transfer ratio %v, want 10", r)
	}
	if (Profile{}).TransferTime(bytes) != 0 {
		t.Fatal("zero bandwidth should report 0 (unknown), not Inf")
	}
}

func TestContentionAffectsTrainingAndInferenceEqually(t *testing.T) {
	rng := tensor.NewRNG(3)
	m := NewMonitor(rng, JetsonNano())
	const fwd = 1_000_000
	m.SetBackgroundProcs(0)
	p0 := m.Profile()
	m.SetBackgroundProcs(2)
	p2 := m.Profile()
	infRatio := p2.InferenceLatency(fwd) / p0.InferenceLatency(fwd)
	trainRatio := p2.TrainBatchLatency(fwd, 16) / p0.TrainBatchLatency(fwd, 16)
	if math.Abs(infRatio-trainRatio) > 1e-9 {
		t.Fatalf("contention must scale both equally: %v vs %v", infRatio, trainRatio)
	}
	if math.Abs(infRatio-ContentionFactor(2)) > 1e-9 {
		t.Fatalf("ratio %v, want ContentionFactor(2)=%v", infRatio, ContentionFactor(2))
	}
}
