package experiments

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/edgenet"
	"repro/internal/fed"
	"repro/internal/modular"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// TestFullPipelineIntegration drives the whole stack end to end: offline
// training with the Nebula strategy, a traced online adaptation step, a
// checkpoint round-trip of the cloud model, and serving the restored model
// over the real TCP protocol to an edge client.
func TestFullPipelineIntegration(t *testing.T) {
	const seed = 31
	task := fed.HARTask(seed, fed.ScaleQuick)
	cfg := fed.DefaultConfig()
	cfg.Rounds = 1
	cfg.DevicesPerRound = 3
	cfg.TestPerDevice = 30

	// 1. Offline stage.
	neb := fed.NewNebula(task, cfg)
	neb.TrainCfg.Epochs = 2
	nebRNG := tensor.NewRNG(seed)
	rng := tensor.NewRNG(seed)
	proxy := data.MakeBalancedDataset(rng, task.Gen, data.DefaultEnv(), 15)
	neb.Pretrain(nebRNG, proxy)

	// 2. Traced online adaptation.
	var traceBuf bytes.Buffer
	neb.Trace = trace.New(&traceBuf)
	fleet := data.NewFleet(rng, task.Gen, data.PartitionConfig{
		NumDevices: 5, ClassesPerDevice: 2, MinVolume: 30, MaxVolume: 50,
	})
	clients := fed.NewClients(rng, fleet)
	neb.Adapt(nebRNG, clients)
	acc := neb.LocalAccuracy(clients)
	if acc < 0.3 {
		t.Fatalf("pipeline accuracy %.3f implausible", acc)
	}
	events, err := trace.Read(&traceBuf)
	if err != nil || len(events) == 0 {
		t.Fatalf("trace: %v (%d events)", err, len(events))
	}

	// 3. Checkpoint the adapted cloud model and restore into a fresh
	// skeleton.
	var ckpt bytes.Buffer
	if err := modular.SaveCheckpoint(&ckpt, neb.Model); err != nil {
		t.Fatal(err)
	}
	restored := task.BuildModular(tensor.NewRNG(seed))
	if err := modular.LoadCheckpoint(&ckpt, restored); err != nil {
		t.Fatal(err)
	}

	// 4. Serve the restored model over TCP; an edge client fetches a
	// sub-model and its outputs must match a cloud-side extraction.
	srv := edgenet.NewServer(restored, 1)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var clientErr error
	go func() {
		defer wg.Done()
		skeleton := task.BuildModular(tensor.NewRNG(seed))
		cl, err := edgenet.Dial(addr, 1, skeleton)
		if err != nil {
			clientErr = err
			return
		}
		defer cl.Close()
		if err := cl.Hello(); err != nil {
			clientErr = err
			return
		}
		probe := tensor.New(8, 64)
		tensor.NewRNG(99).FillNormal(probe, 0, 1)
		imp := skeleton.Importance(probe)
		sub, err := cl.FetchSubModel(imp, modular.Budget{CommBytes: 1e12, FwdFLOPs: 1e12, MemElems: 1e12})
		if err != nil {
			clientErr = err
			return
		}
		// The transfer is exact against the codec, which is a pure function:
		// fetched outputs must be bit-identical to a cloud-side extraction
		// carried through a full dense payload.
		want := restored.Extract(sub.Mapping)
		recon, err := edgenet.DecodeVec(edgenet.EncodeVec(want.BackboneVector(), nil, edgenet.WireOpts{}), nil)
		if err != nil {
			clientErr = err
			return
		}
		want.LoadBackboneVector(recon)
		a := sub.Forward(probe, false)
		b := want.Forward(probe, false)
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				clientErr = errMismatch
				return
			}
		}
	}()
	wg.Wait()
	if clientErr != nil {
		t.Fatal(clientErr)
	}
}

var errMismatch = &mismatchErr{}

type mismatchErr struct{}

func (*mismatchErr) Error() string { return "remote sub-model diverges from cloud extraction" }
