package fed

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/edgenet"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// The differential gate of this package: a full adaptation run must be
// bitwise identical for every worker count, including 1. Each helper below
// replays one strategy from fixed seeds and returns a complete fingerprint
// (trace bytes, costs, accuracy, final model vector).

func runNebula(t *testing.T, workers int, dropout float64, faults bool) ([]byte, Costs, float64, []float32) {
	t.Helper()
	rng := tensor.NewRNG(77)
	task := HARTask(78, ScaleQuick)
	cfg := tinyCfg()
	cfg.Rounds = 3
	cfg.DevicesPerRound = 5
	cfg.Workers = workers
	cfg.DropoutProb = dropout
	nb := NewNebula(task, cfg)
	nb.TrainCfg.Epochs = 1
	if faults {
		fc, err := edgenet.ParseFaultSpec("drop=0.3,seed=9")
		if err != nil {
			t.Fatal(err)
		}
		nb.Faults = NewFaultModel(fc)
	}
	var buf bytes.Buffer
	nb.Trace = trace.New(&buf)
	nb.Pretrain(rng, proxyFor(rng, task, 10))
	clients := harFleet(rng, task, 8, 2)
	nb.Adapt(rng, clients)
	acc := nb.LocalAccuracy(clients)
	return buf.Bytes(), nb.Costs(), acc, nn.FlattenVector(nb.Model.Params(), nil)
}

func TestNebulaWorkersDifferential(t *testing.T) {
	// Dropout and faults on, so the skip/fallback/push-lost paths are part of
	// what must replay identically.
	log1, costs1, acc1, vec1 := runNebula(t, 1, 0.25, true)
	log4, costs4, acc4, vec4 := runNebula(t, 4, 0.25, true)
	if !bytes.Equal(log1, log4) {
		t.Fatalf("trace differs between workers=1 (%d bytes) and workers=4 (%d bytes)", len(log1), len(log4))
	}
	if costs1 != costs4 {
		t.Fatalf("costs differ: %+v vs %+v", costs1, costs4)
	}
	if acc1 != acc4 {
		t.Fatalf("accuracy differs: %v vs %v", acc1, acc4)
	}
	if !reflect.DeepEqual(vec1, vec4) {
		t.Fatal("aggregated cloud model differs between worker counts")
	}
}

func TestParticipantSetsDeterministicAcrossWorkersAndReplays(t *testing.T) {
	// With DropoutProb > 0 and an active FaultModel, the set of devices that
	// participate in each round must be a pure function of the seeds: equal
	// across worker counts and across replays (the -seed-audit invariant on
	// the parallel code path).
	participants := func(log []byte) [][]int {
		events, err := trace.Read(bytes.NewReader(log))
		if err != nil {
			t.Fatal(err)
		}
		var rounds [][]int
		for _, e := range events {
			switch e.Kind {
			case trace.KindRoundStart:
				rounds = append(rounds, []int{})
			case trace.KindClientUpdate:
				rounds[len(rounds)-1] = append(rounds[len(rounds)-1], e.Client)
			}
		}
		return rounds
	}
	log1, _, _, _ := runNebula(t, 1, 0.3, true)
	log4, _, _, _ := runNebula(t, 4, 0.3, true)
	log4b, _, _, _ := runNebula(t, 4, 0.3, true)
	p1, p4, p4b := participants(log1), participants(log4), participants(log4b)
	if len(p1) == 0 {
		t.Fatal("no rounds traced")
	}
	if !reflect.DeepEqual(p1, p4) {
		t.Fatalf("participant sets differ across worker counts:\n  workers=1: %v\n  workers=4: %v", p1, p4)
	}
	if !reflect.DeepEqual(p4, p4b) {
		t.Fatalf("participant sets differ across replays:\n  first:  %v\n  second: %v", p4, p4b)
	}
	// The dropout/fault injection must actually bite in this configuration,
	// or the test proves nothing about the skip paths.
	total := 0
	for _, r := range p1 {
		total += len(r)
	}
	if total >= 3*5 {
		t.Fatalf("expected some of the %d slots to drop out, got %d updates", 3*5, total)
	}
}

func runFedAvg(t *testing.T, workers int, mu float32) (Costs, float64, []float32) {
	t.Helper()
	rng := tensor.NewRNG(55)
	task := HARTask(56, ScaleQuick)
	cfg := tinyCfg()
	cfg.Workers = workers
	cfg.DropoutProb = 0.2
	fa := NewFedAvg(task, cfg)
	fa.Mu = mu
	fa.Pretrain(rng, proxyFor(rng, task, 10))
	clients := harFleet(rng, task, 6, 2)
	fa.Adapt(rng, clients)
	acc := fa.LocalAccuracy(clients)
	return fa.Costs(), acc, nn.FlattenVector(fa.global.Params(), nn.LayerStates(fa.global))
}

func TestFedAvgWorkersDifferential(t *testing.T) {
	for _, mu := range []float32{0, 0.1} { // plain FedAvg and FedProx
		costs1, acc1, vec1 := runFedAvg(t, 1, mu)
		costs4, acc4, vec4 := runFedAvg(t, 4, mu)
		if costs1 != costs4 || acc1 != acc4 {
			t.Fatalf("mu=%v: costs/accuracy differ: %+v/%v vs %+v/%v", mu, costs1, acc1, costs4, acc4)
		}
		if !reflect.DeepEqual(vec1, vec4) {
			t.Fatalf("mu=%v: aggregated global model differs between worker counts", mu)
		}
	}
}

func runHeteroFL(t *testing.T, workers int) (Costs, float64, []float32) {
	t.Helper()
	rng := tensor.NewRNG(31)
	task := HARTask(32, ScaleQuick)
	cfg := tinyCfg()
	cfg.Workers = workers
	cfg.DropoutProb = 0.2
	h := NewHeteroFL(task, cfg)
	h.Pretrain(rng, proxyFor(rng, task, 10))
	clients := harFleet(rng, task, 6, 2)
	h.Adapt(rng, clients)
	acc := h.LocalAccuracy(clients)
	return h.Costs(), acc, nn.FlattenVector(h.global.Params(), nn.LayerStates(h.global))
}

func TestHeteroFLWorkersDifferential(t *testing.T) {
	costs1, acc1, vec1 := runHeteroFL(t, 1)
	costs4, acc4, vec4 := runHeteroFL(t, 4)
	if costs1 != costs4 || acc1 != acc4 {
		t.Fatalf("costs/accuracy differ: %+v/%v vs %+v/%v", costs1, acc1, costs4, acc4)
	}
	if !reflect.DeepEqual(vec1, vec4) {
		t.Fatal("aggregated global model differs between worker counts")
	}
}

func TestLocalAdaptAndAdaptiveNetWorkersDifferential(t *testing.T) {
	run := func(kind string, workers int) (Costs, float64) {
		rng := tensor.NewRNG(42)
		task := HARTask(43, ScaleQuick)
		cfg := tinyCfg()
		cfg.Workers = workers
		var sys System
		if kind == "LA" {
			sys = NewLocalAdapt(task, cfg)
		} else {
			sys = NewAdaptiveNet(task, cfg)
		}
		sys.Pretrain(rng, proxyFor(rng, task, 10))
		clients := harFleet(rng, task, 6, 2)
		sys.Adapt(rng, clients)
		return sys.Costs(), sys.LocalAccuracy(clients)
	}
	for _, kind := range []string{"LA", "AN"} {
		costs1, acc1 := run(kind, 1)
		costs4, acc4 := run(kind, 4)
		if costs1 != costs4 || acc1 != acc4 {
			t.Fatalf("%s: costs/accuracy differ: %+v/%v vs %+v/%v", kind, costs1, acc1, costs4, acc4)
		}
	}
}

func TestNebulaLocalOnlyWorkersDifferential(t *testing.T) {
	run := func(workers int) (Costs, float64) {
		rng := tensor.NewRNG(91)
		task := HARTask(92, ScaleQuick)
		cfg := tinyCfg()
		cfg.Workers = workers
		nb := NewNebula(task, cfg)
		nb.TrainCfg.Epochs = 1
		nb.CloudCollaboration = false
		nb.Pretrain(rng, proxyFor(rng, task, 10))
		clients := harFleet(rng, task, 6, 2)
		nb.Adapt(rng, clients)
		return nb.Costs(), nb.LocalAccuracy(clients)
	}
	costs1, acc1 := run(1)
	costs4, acc4 := run(4)
	if costs1 != costs4 || acc1 != acc4 {
		t.Fatalf("w/o-cloud variant differs: %+v/%v vs %+v/%v", costs1, acc1, costs4, acc4)
	}
}
