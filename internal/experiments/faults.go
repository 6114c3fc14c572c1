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
	run := func(fm *fed.FaultModel, label string) (*metrics.Series, fed.Costs) {
		rng := tensor.NewRNG(opt.Seed + 40)
		proxy := data.MakeBalancedDataset(rng, task.Gen, data.DefaultEnv(), opt.ProxyPerClass)
		nb := fed.NewNebula(task, continualConfig(opt))
		nb.TrainCfg.Epochs = opt.PretrainEpochs
		nb.Trace = opt.Trace
		nb.Spans = opt.Spans
		nb.Faults = fm
		nb.Pretrain(tensor.NewRNG(opt.Seed+60), proxy)
		clients := continualFleet(tensor.NewRNG(opt.Seed+50), task, max(opt.Devices/3, 4))
		acc := &metrics.Series{}
		adaptSteps(opt, nb, acc, "faults "+label, shifting(clients))
		return acc, nb.Costs()
	}

	clean, cleanCosts := run(nil, "clean")
	lossy := fed.NewFaultModel(cfg)
	faulty, faultCosts := run(lossy, "lossy")

	tb := metrics.NewTable("Robustness — online adaptation over a lossy link ("+task.Name+", faults "+cfg.String()+")",
		"network", "mean acc", "final acc", "bytes down", "bytes up", "sim time")
	tb.AddRow("clean", f2(100*clean.Mean()), f2(100*clean.Last()),
		metrics.FmtBytes(cleanCosts.BytesDown), metrics.FmtBytes(cleanCosts.BytesUp), metrics.FmtDur(cleanCosts.SimTime))
	tb.AddRow("lossy", f2(100*faulty.Mean()), f2(100*faulty.Last()),
		metrics.FmtBytes(faultCosts.BytesDown), metrics.FmtBytes(faultCosts.BytesUp), metrics.FmtDur(faultCosts.SimTime))
	return &FaultsResult{
		Spec:     cfg.String(),
		Table:    tb,
		Counters: lossy.Stats().Counters("link fault outcomes (" + cfg.String() + ")"),
	}
}
