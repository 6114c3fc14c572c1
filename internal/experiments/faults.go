package experiments

import (
	"time"

	"repro/internal/data"
	"repro/internal/edgenet"
	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// FaultsResult compares one online-adaptation run over a clean network with
// the identical run over a seeded lossy link.
type FaultsResult struct {
	Spec     string
	Table    *metrics.Table
	Counters *metrics.Counters
}

// defaultFaultLink is the harsh-but-survivable link used when -faults is not
// given explicitly: well past the ISSUE's ≥20% drop floor.
func defaultFaultLink(seed int64) edgenet.FaultConfig {
	return edgenet.FaultConfig{Seed: seed, Drop: 0.25, Delay: 20 * time.Millisecond, Reset: 0.05}
}

// RunFaults measures graceful degradation (beyond the paper): Nebula's
// continuous adaptation on the HAR task, once over a clean network and once
// over a lossy link — failed fetches fall back to cached sub-models, failed
// pushes drop out of aggregation — reporting accuracy on both plus the fault
// outcome tallies. Accuracy under faults should land close to clean: the
// point of the fault-tolerance layer is that a flaky network slows devices
// down but does not corrupt learning.
func RunFaults(opt Options) *FaultsResult {
	cfg := opt.Faults
	if !cfg.Enabled() {
		cfg = defaultFaultLink(opt.Seed)
	}
	if cfg.Seed == 0 {
		cfg.Seed = opt.Seed
	}

	task := fed.HARTask(opt.Seed+30, opt.Scale)
	fcfg := opt.fedConfig()
	fcfg.Rounds = 1
	fcfg.DevicesPerRound = opt.Devices

	m := task.Classes / 3
	if m < 2 {
		m = 2
	}
	run := func(fm *fed.FaultModel, label string) (mean, final float64, costs fed.Costs) {
		rng := tensor.NewRNG(opt.Seed + 40)
		proxy := data.MakeBalancedDataset(rng, task.Gen, data.DefaultEnv(), opt.ProxyPerClass)
		nb := fed.NewNebula(task, fcfg)
		nb.TrainCfg.Epochs = opt.PretrainEpochs
		nb.Trace = opt.Trace
		nb.Spans = opt.Spans
		nb.Faults = fm
		nb.Pretrain(tensor.NewRNG(opt.Seed+60), proxy)
		fleetRNG := tensor.NewRNG(opt.Seed + 50)
		fleet := data.NewFleet(fleetRNG, task.Gen, data.PartitionConfig{
			NumDevices: maxInt(opt.Devices/3, 4), ClassesPerDevice: m,
			MinVolume: 50, MaxVolume: 120,
		})
		clients := fed.NewClients(fleetRNG, fleet)
		var accs []float64
		for step := 1; step <= opt.AdaptSteps; step++ {
			for _, c := range clients {
				c.Dev.Shift(shiftFrac)
				c.Mon.Step()
			}
			nb.Adapt(tensor.NewRNG(opt.Seed+int64(step)), clients)
			accs = append(accs, nb.LocalAccuracy(clients))
			opt.logf("faults %s step %d/%d", label, step, opt.AdaptSteps)
		}
		var sum float64
		for _, a := range accs {
			sum += a
		}
		if n := len(accs); n > 0 {
			mean, final = sum/float64(n), accs[n-1]
		}
		return mean, final, nb.Costs()
	}

	cleanMean, cleanFinal, cleanCosts := run(nil, "clean")
	lossy := fed.NewFaultModel(cfg)
	faultMean, faultFinal, faultCosts := run(lossy, "lossy")

	tb := metrics.NewTable("Robustness — online adaptation over a lossy link ("+task.Name+", faults "+cfg.String()+")",
		"network", "mean acc", "final acc", "bytes down", "bytes up", "sim time")
	tb.AddRow("clean", f2(100*cleanMean), f2(100*cleanFinal),
		metrics.FmtBytes(cleanCosts.BytesDown), metrics.FmtBytes(cleanCosts.BytesUp), metrics.FmtDur(cleanCosts.SimTime))
	tb.AddRow("lossy", f2(100*faultMean), f2(100*faultFinal),
		metrics.FmtBytes(faultCosts.BytesDown), metrics.FmtBytes(faultCosts.BytesUp), metrics.FmtDur(faultCosts.SimTime))
	return &FaultsResult{
		Spec:     cfg.String(),
		Table:    tb,
		Counters: lossy.Stats().Counters("link fault outcomes (" + cfg.String() + ")"),
	}
}
