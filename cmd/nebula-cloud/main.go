// Command nebula-cloud runs the cloud side of the real-network testbed: it
// pre-trains a modularized model (offline stage) and serves personalized
// sub-models to nebula-edge clients over TCP, aggregating their updates
// module-wise.
//
// Usage:
//
//	nebula-cloud -task har-mlp -addr :7070 -agg 4
//
// Edge devices connect with nebula-edge using the same -task and -seed so
// both sides build identical model skeletons.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/data"
	"repro/internal/edgenet"
	"repro/internal/fed"
	"repro/internal/modular"
	"repro/internal/obs"
	"repro/internal/tensor"
)

func main() {
	var (
		taskName  = flag.String("task", "har-mlp", "task: har-mlp | image10-resnet | image100-vgg | speech-resnet")
		addr      = flag.String("addr", ":7070", "listen address")
		agg       = flag.Int("agg", 4, "aggregate after this many uploads")
		seed      = flag.Int64("seed", 1, "shared seed (must match edges)")
		proxy     = flag.Int("proxy", 40, "proxy samples per class for offline training")
		epochs    = flag.Int("epochs", 5, "offline training epochs")
		scale     = flag.String("scale", "quick", "model scale: quick | paper")
		quiet     = flag.Bool("quiet", false, "suppress per-request logging")
		loadPath  = flag.String("load", "", "load a checkpoint instead of offline training")
		savePath  = flag.String("save", "", "write a checkpoint after offline training and on shutdown")
		adminAddr = flag.String("admin-addr", "", "serve /metrics, /statusz, /healthz and /debug/pprof/ on this address (merges the RPC server's registry with process telemetry)")
	)
	flag.Parse()

	sc, err := fed.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nebula-cloud:", err)
		os.Exit(2)
	}
	task := fed.TaskByName(*taskName, *seed, sc)
	if task == nil {
		fmt.Fprintf(os.Stderr, "nebula-cloud: unknown task %q\n", *taskName)
		os.Exit(2)
	}

	rng := tensor.NewRNG(*seed)
	model := task.BuildModular(rng)
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			log.Fatalf("open checkpoint: %v", err)
		}
		if err := modular.LoadCheckpoint(f, model); err != nil {
			log.Fatalf("load checkpoint: %v", err)
		}
		f.Close()
		log.Printf("restored checkpoint %s", *loadPath)
	} else {
		log.Printf("offline stage: modularizing and training %s (seed %d)", task.Name, *seed)
		proxyDS := data.MakeBalancedDataset(rng, task.Gen, data.DefaultEnv(), *proxy)
		tc := modular.DefaultTrainConfig()
		tc.Epochs = *epochs
		tc.GroupSize = task.GroupSize
		model.Offline(rng, proxyDS, tc, true)
		log.Printf("offline stage complete; %d module layers", len(model.Layers))
		saveCheckpoint(*savePath, model)
	}

	srv := edgenet.NewServer(model, *agg)
	if !*quiet {
		srv.Logf = log.Printf
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("cloud serving %s on %s (aggregate every %d updates)", task.Name, bound, *agg)

	var admin *obs.Admin
	if *adminAddr != "" {
		admin = obs.NewAdmin(obs.Default(), srv.Registry())
		adminBound, err := admin.Listen(*adminAddr)
		if err != nil {
			log.Fatalf("admin listen: %v", err)
		}
		admin.SetState("running")
		log.Printf("admin plane on http://%s (/metrics, /statusz, /debug/pprof/)", adminBound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	// Close waits for every handler, so the flush folds every update one
	// accepted, and the stats and the checkpoint both include it.
	srv.Close()
	srv.FlushAggregation()
	st := srv.StatsSnapshot()
	log.Printf("shutting down: served %d sub-models, received %d updates, %d aggregations",
		st.SubModelsServed, st.UpdatesReceived, st.Aggregations)
	if admin != nil {
		_ = admin.Close()
	}
	saveCheckpoint(*savePath, model)
}

// saveCheckpoint writes the model to path if a path was given.
func saveCheckpoint(path string, model *modular.Model) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Printf("save checkpoint: %v", err)
		return
	}
	// A failed close can lose the tail of the file: it fails the save too.
	if err := errors.Join(modular.SaveCheckpoint(f, model), f.Close()); err != nil {
		log.Printf("save checkpoint: %v", err)
		return
	}
	log.Printf("checkpoint written to %s", path)
}
