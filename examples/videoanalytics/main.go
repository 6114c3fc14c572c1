// Video-analytics scenario: the paper's motivating use case — cameras whose
// scenes, angles and lighting change over time (outer environment dynamics)
// while co-running apps steal compute (inner runtime dynamics).
//
// A fleet of camera devices runs the image-classification task. Each "hour"
// the scene shifts (object classes rotate, lighting drifts) and background
// load changes. The example contrasts what happens to a static model vs
// Nebula's continuously adapted sub-models, and shows a device shrinking its
// sub-model on the fly when contention spikes (module scheduling).
//
// Run with:
//
//	go run ./examples/videoanalytics
package main

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/modular"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func main() {
	const seed = 7
	rng := tensor.NewRNG(seed)
	task := fed.Image10Task(seed, fed.ScaleQuick)

	cfg := fed.DefaultConfig()
	cfg.Rounds = 2
	cfg.DevicesPerRound = 6
	neb := fed.NewNebula(task, cfg)
	nebRNG := tensor.NewRNG(seed) // the strategy's own stream: training and client sampling

	proxy := data.MakeBalancedDataset(rng, task.Gen, data.DefaultEnv(), 30)
	fmt.Println("training cloud model on historical footage (proxy data)...")
	neb.Pretrain(nebRNG, proxy)

	// Static baseline: the cloud model as deployed, never updated.
	static := fed.NewNoAdapt(task, cfg)
	static.Pretrain(tensor.NewRNG(seed), proxy)

	// Eight cameras, each seeing 3 of 10 object classes at a time.
	fleet := data.NewFleet(rng, task.Gen, data.PartitionConfig{
		NumDevices: 8, ClassesPerDevice: 3, MinVolume: 50, MaxVolume: 120,
	})
	cams := fed.NewClients(rng, fleet)

	fmt.Println("\nhour  static-model  nebula   (mean accuracy over cameras)")
	for hour := 1; hour <= 4; hour++ {
		for _, c := range cams {
			c.Dev.Shift(0.5) // scene change: new objects, lighting drift
			c.Mon.Step()     // background apps come and go
		}
		neb.Adapt(nebRNG, cams)
		fmt.Printf("%4d  %12s  %7s\n", hour,
			metrics.FmtPct(static.LocalAccuracy(cams)),
			metrics.FmtPct(neb.LocalAccuracy(cams)))
	}

	// Inner runtime dynamics: camera 0's video encoder spikes and steals
	// compute. The on-device module scheduler (paper §5.1) switches to a
	// cheaper rung of nested module subsets — no cloud round-trip.
	cam := cams[0]
	sub := neb.SubModelOf(cam.Dev.ID)
	if sub == nil {
		return
	}
	probe, _ := cam.Dev.Train.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
	sched := modular.NewScheduler(sub, probe)
	fmt.Printf("\ncamera 0 scheduler: %d operating points, %d..%d FLOPs/sample\n",
		sched.Rungs(), sched.FlopsOf(sched.Rungs()-1), sched.FlopsOf(0))

	latencyBudget := 2.2 * float64(sched.FlopsOf(0)) / cam.Mon.Class.ComputeFLOPS
	for _, procs := range []int{0, 3} {
		cam.Mon.SetBackgroundProcs(procs)
		p := cam.Mon.Profile()
		rung := sched.Fit(p.ComputeFLOPS, latencyBudget)
		acc := accuracyOf(sched, cam, 60)
		fmt.Printf("  %d background procs → rung %d (%d FLOPs), local accuracy %s\n",
			procs, rung, sched.FlopsOf(rung), metrics.FmtPct(acc))
	}

	costs := neb.Costs()
	fmt.Printf("total adaptation traffic: ↓%s ↑%s across %d rounds\n",
		metrics.FmtBytes(costs.BytesDown), metrics.FmtBytes(costs.BytesUp), costs.Rounds)
}

// accuracyOf evaluates the scheduler's current rung on a fresh local test
// set.
func accuracyOf(s *modular.Scheduler, cam *fed.Client, n int) float64 {
	test := cam.Dev.TestSet(n)
	x, y := test.All()
	return nn.Accuracy(s.Forward(x, false), y)
}
