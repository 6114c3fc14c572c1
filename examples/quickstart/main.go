// Quickstart: the minimal Nebula lifecycle on the mobile-sensing task.
//
// It walks the paper's pipeline end to end in under a minute:
//  1. offline — modularize a cloud model and train it on proxy data
//     (end-to-end with load balancing, then module ability-enhancing);
//  2. online — a fleet of heterogeneous edge devices with non-IID local
//     tasks derives personalized sub-models, trains them on fresh data, and
//     the cloud aggregates the updates module-wise;
//  3. the environment shifts and the cycle repeats.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

func main() {
	const seed = 42
	rng := tensor.NewRNG(seed)

	// The mobile-sensing task: 6 activities over 64-d features (a synthetic
	// stand-in for UCI HAR; see DESIGN.md for the substitution rationale).
	task := fed.HARTask(seed, fed.ScaleQuick)

	// --- Offline stage: on-cloud model prototyping and training ----------
	cfg := fed.DefaultConfig()
	cfg.Rounds = 3
	cfg.DevicesPerRound = 8
	neb := fed.NewNebula(task, cfg)
	nebRNG := tensor.NewRNG(seed) // the strategy's own stream: training and client sampling

	proxy := data.MakeBalancedDataset(rng, task.Gen, data.DefaultEnv(), 40)
	fmt.Printf("offline: training modularized cloud model on %d proxy samples...\n", proxy.Len())
	neb.Pretrain(nebRNG, proxy)
	fmt.Printf("offline: done — %d module layers, top-%d routing\n",
		len(neb.Model.Layers), neb.Model.TopK)

	// --- Online stage: edge-cloud collaborative adaptation ---------------
	// A fleet of 12 devices, each holding 2 of the 6 activity classes
	// (label skew) with its own subject transform (feature skew).
	fleet := data.NewFleet(rng, task.Gen, data.PartitionConfig{
		NumDevices: 12, ClassesPerDevice: 2,
		MinVolume: 50, MaxVolume: 150, FeatureSkew: true,
	})
	clients := fed.NewClients(rng, fleet)

	fmt.Printf("\nbefore adaptation: mean local accuracy %s\n", metrics.FmtPct(neb.LocalAccuracy(clients)))

	for step := 1; step <= 3; step++ {
		// The edge environment changes: half of each device's data is
		// replaced with samples from a shifted distribution.
		for _, c := range clients {
			c.Dev.Shift(0.5)
			c.Mon.Step()
		}
		neb.Adapt(nebRNG, clients)
		costs := neb.Costs()
		fmt.Printf("step %d: accuracy %s, cumulative traffic ↓%s ↑%s, simulated time %s\n",
			step, metrics.FmtPct(neb.LocalAccuracy(clients)),
			metrics.FmtBytes(costs.BytesDown), metrics.FmtBytes(costs.BytesUp),
			metrics.FmtDur(costs.SimTime))
	}

	// Inspect one device's personalized sub-model.
	sub := neb.SubModelOf(clients[0].Dev.ID)
	if sub != nil {
		fmt.Printf("\ndevice 0 sub-model: %d modules across %d layers, %s on the wire\n",
			sub.NumModules(), len(sub.Layers), metrics.FmtBytes(sub.ParamBytes()))
	}
}
