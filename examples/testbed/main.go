// Testbed-in-a-process: the full edge-cloud protocol (the same gob/TCP stack
// the nebula-cloud and nebula-edge binaries use) exercised end to end with a
// cloud server and several concurrent edge devices on localhost — the
// in-miniature version of the paper's 20-device WiFi testbed.
//
// Run with:
//
//	go run ./examples/testbed
package main

import (
	"fmt"
	"log"
	"math"
	"sync"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/edgenet"
	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/modular"
	"repro/internal/tensor"
)

func main() {
	const seed = 11
	task := fed.SpeechTask(seed, fed.ScaleQuick)
	rng := tensor.NewRNG(seed)

	// Cloud: offline stage, then serve.
	fmt.Println("cloud: offline training (speech task)...")
	cloudModel := task.BuildModular(rng)
	proxy := data.MakeBalancedDataset(rng, task.Gen, data.DefaultEnv(), 15)
	tc := modular.DefaultTrainConfig()
	tc.Epochs = 2
	tc.GroupSize = task.GroupSize
	cloudModel.TrainEndToEnd(rng, proxy, tc)
	cloudModel.AbilityEnhance(rng, proxy, tc)

	const devices = 4
	srv := edgenet.NewServer(cloudModel, devices)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("cloud: serving on %s, aggregating every %d updates\n\n", addr, devices)

	classByIdx := []device.Class{device.JetsonNano(), device.RaspberryPi(), device.ClassByName("mid-soc"), device.ClassByName("low-soc")}

	var wg sync.WaitGroup
	results := make([]string, devices)
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Every edge builds the same skeleton from the shared seed.
			skeleton := task.BuildModular(tensor.NewRNG(seed))
			cl, err := edgenet.Dial(addr, id, skeleton)
			if err != nil {
				log.Fatal(err)
			}
			defer cl.Close()
			if err := cl.Hello(); err != nil {
				log.Fatal(err)
			}

			drng := tensor.NewRNG(int64(1000 + id))
			dev := data.NewDeviceData(drng, task.Gen, id,
				[]int{(id * 7) % 35, (id*7 + 1) % 35, (id*7 + 2) % 35, (id*7 + 3) % 35, (id*7 + 4) % 35},
				data.RandomEnv(drng), 80)
			mon := device.NewMonitor(drng, classByIdx[id%len(classByIdx)])

			// Importance from local data through the downloaded selector.
			x, _ := dev.Train.Batch(indices(min(dev.Train.Len(), 48)))
			imp := skeleton.Importance(x)
			sub, err := cl.FetchSubModel(imp, skeleton.PoolBudget(poolFraction(mon.Profile())))
			if err != nil {
				log.Fatal(err)
			}
			before := fed.EvalLayer(sub, dev.TestSet(60))
			fed.TrainLayer(drng, sub, dev.Train, 3, 0.01, 16, nil)
			after := fed.EvalLayer(sub, dev.TestSet(60))
			if err := cl.PushUpdate(sub, imp, float64(dev.Train.Len())); err != nil {
				log.Fatal(err)
			}
			in, out := cl.Traffic()
			results[id] = fmt.Sprintf("device %d (%s): %2d modules, local acc %s → %s, traffic ↓%s ↑%s",
				id, mon.Class.Name, sub.NumModules(), metrics.FmtPct(before), metrics.FmtPct(after),
				metrics.FmtBytes(in), metrics.FmtBytes(out))
		}(d)
	}
	wg.Wait()
	for _, r := range results {
		fmt.Println(r)
	}

	st := srv.StatsSnapshot()
	fmt.Printf("\ncloud stats: %d sub-models served, %d updates, %d module-wise aggregations\n",
		st.SubModelsServed, st.UpdatesReceived, st.Aggregations)
}

func indices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// poolFraction scales the share of the module pool a device may hold with
// its effective compute, between 0.15 and 0.7.
func poolFraction(p device.Profile) float64 {
	return math.Min(math.Max(0.3*p.ComputeFLOPS/device.JetsonNano().ComputeFLOPS, 0.15), 0.7)
}
