// Command nebula-edge runs one edge device of the real-network testbed: it
// connects to nebula-cloud, fetches the unified selector, and then loops
// through adaptation steps — shift local data, score module importance,
// fetch a personalized sub-model, train it on fresh local data, and push the
// update back.
//
// Usage:
//
//	nebula-edge -addr 127.0.0.1:7070 -task har-mlp -id 3 -steps 5 -m 2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/edgenet"
	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/modular"
	"repro/internal/tensor"
)

func main() {
	var (
		taskName = flag.String("task", "har-mlp", "task (must match cloud)")
		addr     = flag.String("addr", "127.0.0.1:7070", "cloud address")
		id       = flag.Int("id", 0, "device id")
		seed     = flag.Int64("seed", 1, "shared seed (must match cloud)")
		steps    = flag.Int("steps", 3, "adaptation steps")
		m        = flag.Int("m", 2, "classes per device (label skew)")
		volume   = flag.Int("volume", 80, "local samples")
		epochs   = flag.Int("epochs", 3, "local epochs per step")
		shift    = flag.Float64("shift", 0.5, "data replaced per step")
		devClass = flag.String("class", "jetson-nano", "device class for the resource profile")
		scale    = flag.String("scale", "quick", "model scale: quick | paper")
		timeout  = flag.Duration("timeout", 15*time.Second, "per-call deadline before a retry")
		retries  = flag.Int("retries", 4, "attempts per call (reconnect + backoff between attempts)")
		faults   = flag.String("faults", "", "inject a seeded lossy link client-side, e.g. 'drop=0.25,delay=20ms,reset=0.05,seed=7'")
	)
	flag.Parse()

	sc := fed.ScaleQuick
	if *scale == "paper" {
		sc = fed.ScalePaper
	}
	task := fed.TaskByName(*taskName, *seed, sc)
	if task == nil {
		fmt.Fprintf(os.Stderr, "nebula-edge: unknown task %q\n", *taskName)
		os.Exit(2)
	}

	// The skeleton shares the cloud's architecture via the common seed; all
	// weights are replaced by downloads.
	skeleton := task.BuildModular(tensor.NewRNG(*seed))
	var cl *edgenet.EdgeClient
	var err error
	if *faults != "" {
		cfg, specErr := edgenet.ParseFaultSpec(*faults)
		if specErr != nil {
			log.Fatalf("faults: %v", specErr)
		}
		if cfg.Seed == 0 {
			cfg.Seed = *seed
		}
		cl, err = edgenet.DialFaulty(*addr, *id, skeleton, cfg)
	} else {
		cl, err = edgenet.Dial(*addr, *id, skeleton)
	}
	if err != nil {
		log.Fatalf("dial: %v", err)
	}
	cl.Policy.CallTimeout = *timeout
	cl.Policy.MaxAttempts = *retries
	cl.Policy.Seed = *seed
	defer cl.Close()
	if err := cl.Hello(); err != nil {
		log.Fatalf("hello: %v", err)
	}
	log.Printf("device %d connected to %s (%s)", *id, *addr, task.Name)

	rng := tensor.NewRNG(*seed*1000 + int64(*id))
	mClasses := *m
	if mClasses <= 0 || mClasses > task.Classes {
		mClasses = task.Classes
	}
	start := rng.Intn(task.Classes)
	classes := make([]int, mClasses)
	for i := range classes {
		classes[i] = (start + i) % task.Classes
	}
	dev := data.NewDeviceData(rng, task.Gen, *id, classes, data.RandomEnv(rng), *volume)
	mon := device.NewMonitor(rng, device.ClassByName(*devClass))

	var cached *modular.SubModel
	for step := 1; step <= *steps; step++ {
		if step > 1 {
			dev.Shift(*shift)
			mon.Step()
		}
		// Importance from local data via the (downloaded) selector.
		imp := skeleton.Probe(skeleton.Selector, dev.Train)

		frac := fed.PoolFraction(mon.Profile().ComputeFLOPS, fed.DefaultMinFraction, fed.DefaultMaxFraction)
		sub, err := cl.FetchSubModel(imp, skeleton.PoolBudget(frac))
		if err != nil {
			// Dynamic-edge survival: a lost fetch degrades to the cached
			// sub-model instead of killing the device loop.
			if cached == nil {
				log.Printf("step %d: fetch lost (%v); no cached sub-model yet, skipping step", step, err)
				continue
			}
			log.Printf("step %d: fetch lost (%v); serving cached sub-model", step, err)
			sub = cached
		}
		cached = sub
		before := fed.EvalLayer(sub, dev.TestSet(60))
		fed.TrainLayer(rng, sub, dev.Train, *epochs, 0.01, 16, nil)
		after := fed.EvalLayer(sub, dev.TestSet(60))
		if err := cl.PushUpdate(sub, imp, float64(dev.Train.Len())); err != nil {
			log.Printf("step %d: push lost (%v); round proceeds without this device", step, err)
		}
		in, out := cl.Traffic()
		log.Printf("step %d: %d modules, acc %.3f → %.3f, traffic ↓%s ↑%s",
			step, sub.NumModules(), before, after, metrics.FmtBytes(in), metrics.FmtBytes(out))
	}
	if rs := cl.RetryStats(); rs.Retries+rs.Reconnects+rs.Timeouts > 0 {
		log.Printf("resilience: %d retries, %d reconnects, %d call timeouts", rs.Retries, rs.Reconnects, rs.Timeouts)
	}
}
