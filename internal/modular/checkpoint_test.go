package modular

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(1)
	m := NewModularMLP(rng, 12, 16, 4, smallCfg())
	// Advance BN-free MLP weights a little so the checkpoint is non-trivial.
	x := tensor.New(8, 12)
	rng.FillNormal(x, 0, 1)
	m.Forward(x, nil, true)

	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2 := NewModularMLP(tensor.NewRNG(99), 12, 16, 4, smallCfg())
	if err := LoadCheckpoint(&buf, m2); err != nil {
		t.Fatal(err)
	}
	a := nn.FlattenVector(m.Params(), nil)
	b := nn.FlattenVector(m2.Params(), nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("weights differ at %d after load", i)
		}
	}
	// Same forward outputs.
	ya := m.Forward(x, nil, false)
	yb := m2.Forward(x, nil, false)
	for i := range ya.Data {
		if ya.Data[i] != yb.Data[i] {
			t.Fatal("restored model diverges in forward pass")
		}
	}
}

func TestCheckpointRestoresRunningStats(t *testing.T) {
	rng := tensor.NewRNG(2)
	m := NewModularCNN(rng, 1, 8, 4, []ConvStage{{OutC: 6, Stride: 2}}, 3, smallCfg())
	// Drive batchnorm running statistics away from init.
	x := tensor.New(8, 1, 8, 8)
	rng.FillNormal(x, 3, 2)
	for i := 0; i < 5; i++ {
		m.Forward(x, nil, true)
	}
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2 := NewModularCNN(tensor.NewRNG(50), 1, 8, 4, []ConvStage{{OutC: 6, Stride: 2}}, 3, smallCfg())
	if err := LoadCheckpoint(&buf, m2); err != nil {
		t.Fatal(err)
	}
	// Inference (which uses running stats) must agree exactly.
	ya := m.Forward(x, nil, false)
	yb := m2.Forward(x, nil, false)
	for i := range ya.Data {
		if ya.Data[i] != yb.Data[i] {
			t.Fatal("running statistics not restored")
		}
	}
}

func TestCheckpointRejectsWrongArchitecture(t *testing.T) {
	rng := tensor.NewRNG(3)
	m := NewModularMLP(rng, 12, 16, 4, smallCfg())
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, m); err != nil {
		t.Fatal(err)
	}
	other := NewModularMLP(rng, 10, 16, 4, smallCfg()) // different input width
	if err := LoadCheckpoint(&buf, other); err == nil {
		t.Fatal("expected architecture mismatch error")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	rng := tensor.NewRNG(4)
	m := NewModularMLP(rng, 12, 16, 4, smallCfg())
	if err := LoadCheckpoint(bytes.NewReader([]byte("not a checkpoint")), m); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestSchedulerLadderAndSwitching(t *testing.T) {
	rng := tensor.NewRNG(5)
	cfg := smallCfg()
	cfg.ModulesPerLayer = 8
	cfg.TopK = 2
	m := NewModularMLP(rng, 12, 16, 4, cfg)
	sub := m.Extract([][]int{{0, 1, 2, 3, 4, 5}})
	probe := tensor.New(6, 12)
	rng.FillNormal(probe, 0, 1)
	s := NewScheduler(sub, probe)

	if s.Rungs() < 3 {
		t.Fatalf("expected ≥3 rungs for 6 modules, got %d", s.Rungs())
	}
	// Costs decrease (weakly) down the ladder.
	for r := 1; r < s.Rungs(); r++ {
		if s.FlopsOf(r) > s.FlopsOf(r-1) {
			t.Fatalf("rung %d costs more than rung %d", r, r-1)
		}
	}
	// A generous budget keeps the full model; a starved device drops rungs.
	if got := s.Fit(1e15, 1); got != 0 {
		t.Fatalf("generous budget chose rung %d", got)
	}
	starved := s.Fit(1, 1e-12)
	if starved != s.Rungs()-1 {
		t.Fatalf("starved device should pick the last rung, got %d", starved)
	}
	// Forward works at every rung and keeps output shape.
	for r := 0; r < s.Rungs(); r++ {
		s.cur = r
		y := s.Forward(probe, false)
		if y.Dim(0) != 6 || y.Dim(1) != 4 {
			t.Fatalf("rung %d output shape %v", r, y.Shape())
		}
		if y.HasNaN() {
			t.Fatalf("rung %d produced NaN", r)
		}
	}
}

func TestSchedulerMatchesSubModelAtFullRung(t *testing.T) {
	rng := tensor.NewRNG(6)
	m := NewModularMLP(rng, 12, 16, 4, smallCfg())
	m.Selector.NoiseStd = 0
	sub := m.Extract([][]int{{0, 1, 2}})
	probe := tensor.New(4, 12)
	rng.FillNormal(probe, 0, 1)
	s := NewScheduler(sub, probe)
	s.cur = 0
	a := s.Forward(probe, false)
	b := sub.Forward(probe, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("full rung must match the plain sub-model forward")
		}
	}
}

func TestRoutingStats(t *testing.T) {
	rng := tensor.NewRNG(20)
	m := NewModularMLP(rng, 10, 16, 4, smallCfg())
	x := tensor.New(30, 10)
	rng.FillNormal(x, 0, 1)
	stats := m.Routing(x)
	if len(stats) != 1 {
		t.Fatalf("layers %d", len(stats))
	}
	st := stats[0]
	n := m.Layers[0].N()
	maxEnt := math.Log(float64(n))
	if st.MeanEntropy < 0 || st.MeanEntropy > maxEnt+1e-6 {
		t.Fatalf("entropy %v outside [0, ln %d]", st.MeanEntropy, n)
	}
	var totalUtil float64
	for _, u := range st.Utilization {
		if u < 0 || u > 1 {
			t.Fatalf("utilization %v outside [0,1]", u)
		}
		totalUtil += u
	}
	// Each sample activates exactly TopK modules.
	if math.Abs(totalUtil-float64(m.TopK)) > 1e-6 {
		t.Fatalf("utilization sums to %v, want TopK=%d", totalUtil, m.TopK)
	}
	if st.LoadCV < 0 {
		t.Fatalf("load CV %v", st.LoadCV)
	}
}

func TestRoutingLoadCVDropsWithBalancedTraining(t *testing.T) {
	// After end-to-end training with the load-balancing loss, the load CV
	// should not explode (the selector keeps using multiple modules).
	rng := tensor.NewRNG(21)
	gen := data.NewSynthHAR(22)
	ds := data.MakeBalancedDataset(rng, gen, data.DefaultEnv(), 30)
	m := NewModularMLP(rng, 64, 32, 6, smallCfg())
	tc := DefaultTrainConfig()
	tc.Epochs = 3
	m.TrainEndToEnd(rng, ds, tc)
	x, _ := ds.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	st := m.Routing(x)[0]
	if st.LoadCV > 1.8 { // one-hot collapse onto a single module would be ≈√(N−1)≈1.73+
		t.Fatalf("selector collapsed: load CV %v", st.LoadCV)
	}
	active := 0
	for _, u := range st.Utilization {
		if u > 0 {
			active++
		}
	}
	if active < 2 {
		t.Fatalf("only %d modules ever used", active)
	}
}

// TestCheckpointBytesGolden pins a fixed-seed checkpoint's bytes: the gob
// header and body, their fields and their order are the file format, so a
// change to how the tensors are gathered must not move a byte. The running
// statistics are set, not trained, so the bytes do not depend on the kernels.
func TestCheckpointBytesGolden(t *testing.T) {
	m := NewModularCNN(tensor.NewRNG(7), 1, 8, 4, []ConvStage{{OutC: 6, Stride: 2}}, 3, smallCfg())
	for k, s := range m.States() {
		for i := range s.Data {
			s.Data[i] = float32(k) + float32(i%5)*0.25
		}
	}
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, m); err != nil {
		t.Fatal(err)
	}
	const want = "a6ab40b3d833eebd999f048f15017ec526139b8d183e1d0055a5e0260feb034e"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("checkpoint SHA-256 %s (%d bytes), want %s", got, buf.Len(), want)
	}
}

// TestCheckpointRejectsShortStates: a body whose state vector does not fit the
// skeleton is an error, not a panic or a partial load.
func TestCheckpointRejectsShortStates(t *testing.T) {
	m := NewModularCNN(tensor.NewRNG(8), 1, 8, 4, []ConvStage{{OutC: 6, Stride: 2}}, 3, smallCfg())
	backbone := nn.FlattenVector(m.BackboneParams(), nil)
	states := nn.FlattenVector(nil, m.States())
	sel := m.Selector.Vector()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	hdr := checkpointHeader{Magic: checkpointMagic, LayerSizes: m.LayerSizes(), TopK: m.TopK, InShape: m.InShape,
		ParamCount: len(backbone), StateCount: len(states) - 1, SelCount: len(sel)}
	if err := enc.Encode(hdr); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(checkpointBody{Backbone: backbone, States: states[1:], Selector: sel}); err != nil {
		t.Fatal(err)
	}
	if err := LoadCheckpoint(&buf, m); err == nil {
		t.Fatal("a checkpoint one state value short loaded")
	}
}
