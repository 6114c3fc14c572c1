package fed

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// runNebulaWire replays one Nebula adaptation from fixed seeds with the
// simulated v2 wire codec on (or off) and returns the full determinism
// fingerprint, mirroring runNebula in parallel_test.go.
func runNebulaWire(t *testing.T, workers int, compress bool) ([]byte, Costs, float64, []float32) {
	t.Helper()
	rng := tensor.NewRNG(201)
	task := HARTask(202, ScaleQuick)
	cfg := tinyCfg()
	cfg.Rounds = 3
	cfg.DevicesPerRound = 5
	cfg.Workers = workers
	cfg.WireCompress = compress
	cfg.WireTopK = 0.25
	nb := NewNebula(task, cfg)
	nb.TrainCfg.Epochs = 1
	var buf bytes.Buffer
	nb.Trace = trace.New(&buf)
	nb.Pretrain(rng, proxyFor(rng, task, 10))
	clients := harFleet(rng, task, 8, 2)
	nb.Adapt(rng, clients)
	acc := nb.LocalAccuracy(clients)
	return buf.Bytes(), nb.Costs(), acc, nn.FlattenVector(nb.Model.Params(), nil)
}

func TestNebulaWireCompressWorkersDifferential(t *testing.T) {
	// The wire codec runs inside the parallel workers (encode, decode,
	// reconstruction loads), so compressed runs must uphold the same bitwise
	// worker-count independence as exact runs: refs snapshotted in prep,
	// committed in canonical order.
	log1, costs1, acc1, vec1 := runNebulaWire(t, 1, true)
	log4, costs4, acc4, vec4 := runNebulaWire(t, 4, true)
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

func TestNebulaWireCompressReducesTraffic(t *testing.T) {
	// Same seeds, same fleet, wire on vs off: the round traffic (everything
	// that crosses the simulated link during Adapt) must shrink at least 2×,
	// and the adapted accuracy must stay in the same neighbourhood — the
	// codec trades bounded quantization error for bandwidth, not model
	// quality. LocalAccuracy's derive-on-the-spot charges stay uncompressed
	// by design, so the comparison uses the post-Adapt costs.
	_, clean, accClean, _ := runNebulaWire(t, 2, false)
	_, comp, accComp, _ := runNebulaWire(t, 2, true)
	if comp.Total()*2 > clean.Total() {
		t.Fatalf("compressed traffic %d not ≥2× below clean %d", comp.Total(), clean.Total())
	}
	if d := math.Abs(accClean - accComp); d > 0.15 {
		t.Fatalf("accuracy moved %.3f under compression (clean %.3f, compressed %.3f)", d, accClean, accComp)
	}
	if comp.Rounds != clean.Rounds {
		t.Fatalf("round counts diverged: %d vs %d", comp.Rounds, clean.Rounds)
	}
}

func TestNebulaWireCostsMatchTrace(t *testing.T) {
	// The trace records the charged (compressed) byte counts, so
	// trace.Summarize must reproduce Costs exactly — the compress experiment's
	// CI gate leans on this equality.
	log, costs, _, _ := runNebulaWire(t, 3, true)
	events, err := trace.Read(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckSeq(events); err != nil {
		t.Fatal(err)
	}
	sum := trace.Summarize(events)
	if sum.BytesUp != costs.BytesUp || sum.BytesDown != costs.BytesDown {
		t.Fatalf("trace bytes (%d up, %d down) != costs (%d up, %d down)",
			sum.BytesUp, sum.BytesDown, costs.BytesUp, costs.BytesDown)
	}
	if sum.Rounds != costs.Rounds || sum.SimTime != costs.SimTime {
		t.Fatalf("trace rounds/time (%d, %v) != costs (%d, %v)", sum.Rounds, sum.SimTime, costs.Rounds, costs.SimTime)
	}
}

func TestNebulaWireDeltaRefsAdvance(t *testing.T) {
	// After a couple of rounds every participating device holds a wire
	// reference, and repeat participants' downlinks ride the delta path —
	// observable as a second-round byte charge well below a full int8
	// payload would be. Here we just pin the bookkeeping: refs exist, match
	// the device's held structure, and the wirePayloads counter moved.
	rng := tensor.NewRNG(301)
	task := HARTask(302, ScaleQuick)
	cfg := tinyCfg()
	cfg.Rounds = 2
	cfg.DevicesPerRound = 4
	cfg.WireCompress = true
	nb := NewNebula(task, cfg)
	nb.TrainCfg.Epochs = 1
	nb.Pretrain(rng, proxyFor(rng, task, 10))
	clients := harFleet(rng, task, 6, 2)
	nb.Adapt(rng, clients)
	if len(nb.wireRefs) == 0 {
		t.Fatal("no wire references after compressed rounds")
	}
	for id, ref := range nb.wireRefs {
		sub := nb.subs[id]
		if sub == nil {
			t.Fatalf("device %d has a wire ref but no sub-model", id)
		}
		if len(ref.Vec) != len(sub.BackboneVector()) {
			t.Fatalf("device %d ref length %d != backbone %d", id, len(ref.Vec), len(sub.BackboneVector()))
		}
	}
}
