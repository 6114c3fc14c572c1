package device

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestCatalogueWeightsAndLookup(t *testing.T) {
	var sum float64
	for _, c := range Catalogue {
		if c.ComputeFLOPS <= 0 || c.MemoryBytes <= 0 || c.BandwidthBps <= 0 {
			t.Fatalf("invalid class %+v", c)
		}
		sum += c.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("catalogue weights sum to %v", sum)
	}
	if ClassByName("jetson-nano").Name != "jetson-nano" {
		t.Fatal("lookup failed")
	}
	if JetsonNano().ComputeFLOPS <= RaspberryPi().ComputeFLOPS {
		t.Fatal("Nano should be faster than Pi")
	}
}

func TestClassByNameUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ClassByName("does-not-exist")
}

func TestSampleClassFollowsWeights(t *testing.T) {
	rng := tensor.NewRNG(1)
	counts := map[string]int{}
	for i := 0; i < 5000; i++ {
		counts[SampleClass(rng).Name]++
	}
	if counts["mid-soc"] < counts["flagship-soc"] {
		t.Fatal("mid-soc should be more common than flagship")
	}
	if counts["raspberry-pi-4b"] == 0 {
		t.Fatal("all classes should be sampled")
	}
}

func TestContentionFactorCalibration(t *testing.T) {
	if ContentionFactor(0) != 1 {
		t.Fatal("no contention must be 1×")
	}
	// The paper measures 5.06× with 3 background processes (Fig 1b).
	f3 := ContentionFactor(3)
	if math.Abs(f3-5.06) > 0.02 {
		t.Fatalf("ContentionFactor(3) = %v, want ≈5.06", f3)
	}
	for n := 1; n < 5; n++ {
		if ContentionFactor(n) <= ContentionFactor(n-1) {
			t.Fatal("contention must be monotone")
		}
	}
}

func TestProfileLatencyAndTransfer(t *testing.T) {
	p := Profile{ComputeFLOPS: 1e9, MemoryBytes: 1 << 30, BandwidthBps: 8e6}
	if got := p.InferenceLatency(2e6); math.Abs(got-0.002) > 1e-12 {
		t.Fatalf("InferenceLatency = %v", got)
	}
	if got := p.TrainBatchLatency(1e6, 10); math.Abs(got-0.03) > 1e-12 {
		t.Fatalf("TrainBatchLatency = %v", got)
	}
	// 1 MB over 8 Mbit/s = 1 second.
	if got := p.TransferTime(1 << 20); math.Abs(got-1.048576) > 1e-6 {
		t.Fatalf("TransferTime = %v", got)
	}
}

func TestTrainMemoryAccounting(t *testing.T) {
	rng := tensor.NewRNG(2)
	model := nn.NewMLP(rng, 64, []int{128, 128}, 6, 1.0)
	_, memEl := nn.TrainCost(model, 64)
	small := Profile{MemoryBytes: 1 << 30}
	if TrainMemoryBytes(memEl, 16) > small.MemoryBytes {
		t.Fatal("small MLP must fit 1 GB")
	}
	tiny := Profile{MemoryBytes: 32 << 20}
	if TrainMemoryBytes(memEl, 16) <= tiny.MemoryBytes {
		t.Fatal("nothing fits below framework overhead")
	}
	if TrainMemoryBytes(memEl, 16) <= TrainMemoryBytes(memEl, 1) {
		t.Fatal("memory must grow with batch size")
	}
}

func TestTrainingCostsMoreThanInference(t *testing.T) {
	// Reproduces the Fig 2(c) qualitative claim: training needs multiples of
	// inference memory and time.
	rng := tensor.NewRNG(3)
	model := nn.NewVGGLike(rng, 3, 16, []int{16, 32}, 10, 1.0)
	cost := CostOf(model, 3*16*16)
	if cost.TrainFLOPs != 3*cost.FwdFLOPs {
		t.Fatalf("train FLOPs %d vs fwd %d", cost.TrainFLOPs, cost.FwdFLOPs)
	}
	inferMem := InferenceMemoryBytes(model, 3*16*16)
	trainMem := TrainMemoryBytes(cost.TrainMemEl, 16)
	if trainMem < 2*inferMem {
		t.Fatalf("training memory %d should dwarf inference %d", trainMem, inferMem)
	}
	if cost.Bytes != int64(cost.Params)*4 {
		t.Fatal("wire bytes must be 4 per param")
	}
}

func TestMonitorStepBounded(t *testing.T) {
	rng := tensor.NewRNG(4)
	m := NewMonitor(rng, JetsonNano())
	seen := map[int]bool{}
	for i := 0; i < 500; i++ {
		m.Step()
		n := m.backgroundProcs
		if n < 0 || n > 4 {
			t.Fatalf("background procs out of range: %d", n)
		}
		seen[n] = true
		p := m.Profile()
		if p.ComputeFLOPS <= 0 || p.ComputeFLOPS > m.Class.ComputeFLOPS {
			t.Fatalf("profile compute %v out of range", p.ComputeFLOPS)
		}
		if p.MemoryBytes < 0 || p.MemoryBytes > m.Class.MemoryBytes {
			t.Fatalf("profile memory %v out of range", p.MemoryBytes)
		}
		if p.BandwidthBps < 0.69*m.Class.BandwidthBps || p.BandwidthBps > 1.31*m.Class.BandwidthBps {
			t.Fatalf("bandwidth %v outside jitter band", p.BandwidthBps)
		}
	}
	if len(seen) < 3 {
		t.Fatal("random walk should visit several contention levels")
	}
}

func TestMonitorPinnedContention(t *testing.T) {
	rng := tensor.NewRNG(5)
	m := NewMonitor(rng, JetsonNano())
	m.SetBackgroundProcs(3)
	p := m.Profile()
	want := m.Class.ComputeFLOPS / ContentionFactor(3)
	if math.Abs(p.ComputeFLOPS-want) > 1e-3 {
		t.Fatalf("pinned contention compute %v, want %v", p.ComputeFLOPS, want)
	}
}

func TestFig1bShape(t *testing.T) {
	// Inference latency under contention must grow to ≈5× at 3 background
	// processes — the headline of the paper's Figure 1(b).
	rng := tensor.NewRNG(6)
	m := NewMonitor(rng, JetsonNano())
	model := nn.NewVGGLike(tensor.NewRNG(7), 3, 16, []int{16, 32}, 10, 1.0)
	fwd, _ := nn.ForwardCost(model, 3*16*16)
	m.SetBackgroundProcs(0)
	base := m.Profile().InferenceLatency(fwd)
	m.SetBackgroundProcs(3)
	loaded := m.Profile().InferenceLatency(fwd)
	ratio := loaded / base
	if math.Abs(ratio-5.06) > 0.05 {
		t.Fatalf("latency ratio %v, want ≈5.06", ratio)
	}
}
