package experiments

import (
	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// RunAblations isolates the design choices DESIGN.md calls out, beyond the
// paper's own figures: module ability-enhancing training on/off, the
// pull-blend strength, greedy vs exact derivation, and local training or
// cloud collaboration switched off. All variants run the same HAR adaptation
// protocol so the accuracy deltas are attributable to the toggled mechanism.
func RunAblations(opt Options) *metrics.Table {
	task := fed.HARTask(opt.Seed+95, opt.Scale)
	cfg := opt.Config
	rng := tensor.NewRNG(opt.Seed + 96)
	proxy := data.MakeBalancedDataset(rng, task.Gen, data.DefaultEnv(), opt.ProxyPerClass)
	fleet := data.NewFleet(rng, task.Gen, data.PartitionConfig{
		NumDevices: opt.Devices, ClassesPerDevice: 2,
		MinVolume: 30, MaxVolume: 90, FeatureSkew: true,
	})

	run := func(mutate func(*fed.Nebula)) (float64, int64) {
		nb := opt.newNebula(task, cfg)
		nb.TrainCfg.Epochs = opt.PretrainEpochs
		mutate(nb)
		srng := tensor.NewRNG(opt.Seed + 97)
		nb.Pretrain(srng, proxy)
		clients := fed.NewClients(tensor.NewRNG(opt.Seed+98), fleet)
		nb.Adapt(srng, clients)
		return nb.LocalAccuracy(clients), nb.Costs().Total()
	}

	tb := metrics.NewTable("Ablations (HAR task): each row toggles one mechanism",
		"variant", "accuracy (%)", "comm")
	variants := []struct {
		name string
		mut  func(*fed.Nebula)
	}{
		{"nebula (full)", func(n *fed.Nebula) {}},
		{"w/o ability-enhancing", func(n *fed.Nebula) { n.AbilityEnhancing = false }},
		{"pull-blend 0 (no cloud pull)", func(n *fed.Nebula) { n.PullBlend = 0 }},
		{"pull-blend 0.5 (strong pull)", func(n *fed.Nebula) { n.PullBlend = 0.5 }},
		{"exact derivation (B&B)", func(n *fed.Nebula) { n.ExactDerive = true }},
		{"w/o local training", func(n *fed.Nebula) { n.LocalTraining = false }},
		{"w/o cloud (local only)", func(n *fed.Nebula) { n.CloudCollaboration = false }},
	}
	for _, v := range variants {
		acc, comm := run(v.mut)
		tb.AddRow(v.name, f2(100*acc), metrics.FmtBytes(comm))
		opt.logf("ablation %s acc=%.4f", v.name, acc)
	}
	return tb
}
