package experiments

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/modular"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Row is one Table-1 configuration: a task plus a data-heterogeneity
// setting.
type Row struct {
	Label string
	Task  *fed.Task
	// ClassesPerDevice is m (0 = all classes); FeatureSkew assigns subjects.
	ClassesPerDevice int
	FeatureSkew      bool
}

// Table1Rows returns the seven rows of Table 1, scaled to the option
// profile. Quick scale keeps the m/n ratios of the paper on smaller class
// counts.
func Table1Rows(opt Options) []Row {
	t1 := fed.HARTask(opt.Seed+10, opt.Scale)
	t2 := fed.Image10Task(opt.Seed+11, opt.Scale)
	t3 := fed.Image100Task(opt.Seed+12, opt.Scale)
	t4 := fed.SpeechTask(opt.Seed+13, opt.Scale)
	m3a, m3b := t3.Classes/10, t3.Classes/5 // paper: 10 and 20 of 100
	return []Row{
		{Label: "HAR/MLP 1-subject", Task: t1, ClassesPerDevice: 0, FeatureSkew: true},
		{Label: fmt.Sprintf("%s m=2", t2.Name), Task: t2, ClassesPerDevice: 2},
		{Label: fmt.Sprintf("%s m=5", t2.Name), Task: t2, ClassesPerDevice: 5},
		{Label: fmt.Sprintf("%s m=%d", t3.Name, m3a), Task: t3, ClassesPerDevice: m3a},
		{Label: fmt.Sprintf("%s m=%d", t3.Name, m3b), Task: t3, ClassesPerDevice: m3b},
		{Label: fmt.Sprintf("%s m=5", t4.Name), Task: t4, ClassesPerDevice: 5},
		{Label: fmt.Sprintf("%s m=10", t4.Name), Task: t4, ClassesPerDevice: 10},
	}
}

// systemsFor builds the six compared systems for a task.
func systemsFor(task *fed.Task, cfg fed.Config) []fed.System {
	return []fed.System{
		fed.NewNoAdapt(task, cfg),
		fed.NewLocalAdapt(task, cfg),
		fed.NewAdaptiveNet(task, cfg),
		fed.NewFedAvg(task, cfg),
		fed.NewHeteroFL(task, cfg),
		fed.NewNebula(task, cfg),
	}
}

// runRow pretrains all systems on 30% proxy data, runs one adaptation step
// on a fresh non-IID fleet, and returns per-system accuracy and costs.
func runRow(opt Options, row Row) (accs map[string]float64, costs map[string]fed.Costs) {
	cfg := opt.Config
	accs = map[string]float64{}
	costs = map[string]fed.Costs{}
	rng := tensor.NewRNG(opt.Seed + int64(len(row.Label)))
	proxy := data.MakeBalancedDataset(rng, row.Task.Gen, data.DefaultEnv(), opt.ProxyPerClass)
	fleet := data.NewFleet(rng, row.Task.Gen, data.PartitionConfig{
		NumDevices:       opt.Devices,
		ClassesPerDevice: row.ClassesPerDevice,
		MinVolume:        30, MaxVolume: 90,
		FeatureSkew: row.FeatureSkew,
	})
	for _, sys := range systemsFor(row.Task, cfg) {
		if nb, ok := sys.(*fed.Nebula); ok {
			nb.Trace = opt.Trace
			nb.Spans = opt.Spans
		}
		srng := tensor.NewRNG(opt.Seed + 77) // same stream for fairness
		sys.Pretrain(srng, proxy)
		clients := fed.NewClients(tensor.NewRNG(opt.Seed+88), fleet)
		// One adaptation step: new data arrives, systems adapt.
		sys.Adapt(srng, clients)
		accs[sys.Name()] = sys.LocalAccuracy(clients)
		costs[sys.Name()] = sys.Costs()
		opt.logf("%s %s acc=%.4f comm=%s", row.Label, sys.Name(), accs[sys.Name()], metrics.FmtBytes(costs[sys.Name()].Total()))
	}
	return accs, costs
}

// RunTable1 reproduces Table 1: model accuracy of all six systems after one
// adaptation step on each of the seven task/heterogeneity rows.
func RunTable1(opt Options) *metrics.Table {
	tb := metrics.NewTable("Table 1: accuracy after one adaptation step (%)",
		"configuration", "NA", "LA", "AN", "FA", "HFL", "Nebula")
	for _, row := range Table1Rows(opt) {
		accs, _ := runRow(opt, row)
		tb.AddRow(row.Label,
			f2(accs["NA"]*100), f2(accs["LA"]*100), f2(accs["AN"]*100),
			f2(accs["FA"]*100), f2(accs["HFL"]*100), f2(accs["Nebula"]*100))
	}
	return tb
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// RunFig7 reproduces Figure 7: communication cost of the edge-cloud
// collaborative strategies (FedAvg, HeteroFL, Nebula) during one adaptation
// step, per task. One heterogeneity setting per task (the paper's first
// partition).
func RunFig7(opt Options) *metrics.Table {
	tb := metrics.NewTable("Fig 7: communication cost during model adaptation",
		"configuration", "FedAvg", "HeteroFL", "Nebula", "FA/Nebula")
	rows := Table1Rows(opt)
	for _, i := range []int{0, 1, 3, 5} { // one partition per task
		row := rows[i]
		cfg := opt.Config
		rng := tensor.NewRNG(opt.Seed + 5)
		proxy := data.MakeBalancedDataset(rng, row.Task.Gen, data.DefaultEnv(), opt.ProxyPerClass)
		fleet := data.NewFleet(rng, row.Task.Gen, data.PartitionConfig{
			NumDevices: opt.Devices, ClassesPerDevice: row.ClassesPerDevice,
			MinVolume: 50, MaxVolume: 150, FeatureSkew: row.FeatureSkew,
		})
		res := map[string]int64{}
		for _, sys := range []fed.System{fed.NewFedAvg(row.Task, cfg), fed.NewHeteroFL(row.Task, cfg), fed.NewNebula(row.Task, cfg)} {
			srng := tensor.NewRNG(opt.Seed + 6)
			sys.Pretrain(srng, proxy)
			clients := fed.NewClients(tensor.NewRNG(opt.Seed+7), fleet)
			sys.Adapt(srng, clients)
			res[sys.Name()] = sys.Costs().Total()
			opt.logf("fig7 %s %s %s", row.Label, sys.Name(), metrics.FmtBytes(res[sys.Name()]))
		}
		ratio := float64(res["FA"]) / float64(res["Nebula"])
		tb.AddRow(row.Label, metrics.FmtBytes(res["FA"]), metrics.FmtBytes(res["HFL"]),
			metrics.FmtBytes(res["Nebula"]), fmt.Sprintf("%.2fx", ratio))
	}
	return tb
}

// deployedModels prepares the per-task model set whose on-device footprint
// Figures 8 and 9 measure: the full model (FedAvg's), HeteroFL's half-width
// slice, and Nebula sub-models derived for the two data partitions (m1 =
// stronger skew → leaner sub-models are possible; m2 = weaker skew).
func deployedModels(opt Options, task *fed.Task, m1, m2 int) (full, hfl nn.Layer, nebM1, nebM2 *modular.SubModel) {
	rng := tensor.NewRNG(opt.Seed + 21)
	full = task.BuildFull(rng, 1.0)
	hfl = task.BuildFull(rng, 0.5)

	proxy := data.MakeBalancedDataset(rng, task.Gen, data.DefaultEnv(), opt.ProxyPerClass/2+1)
	nb := fed.NewNebula(task, opt.Config)
	nb.TrainCfg.Epochs = 2
	nb.Pretrain(rng, proxy)

	derive := func(m int) *modular.SubModel {
		classes := m
		if classes <= 0 || classes > task.Classes {
			classes = task.Classes
		}
		dev := data.NewDeviceData(rng, task.Gen, 0, data.AllClasses(task.Classes)[:classes], data.RandomEnv(rng), 60)
		x, _ := dev.Train.Batch([]int{0, 1, 2, 3})
		imp := nb.Model.Importance(x)
		active := nb.Model.Derive(imp, nb.Model.PoolBudget(0.35), false)
		return nb.Model.Extract(active)
	}
	return full, hfl, derive(m1), derive(m2)
}

// RunFig8 reproduces Figure 8: training memory footprint of the deployed
// models on Jetson Nano and Raspberry Pi.
func RunFig8(opt Options) *metrics.Table {
	tb := metrics.NewTable("Fig 8: peak training memory footprint during adaptation",
		"task", "device", "full model", "HeteroFL", "Nebula (m1)", "Nebula (m2)", "full/Nebula")
	rows := Table1Rows(opt)
	taskRows := [][3]int{{0, 0, 0}, {1, 2, 5}, {3, 0, 0}, {5, 5, 10}}
	for _, tr := range taskRows {
		row := rows[tr[0]]
		full, hfl, n1, n2 := deployedModels(opt, row.Task, tr[1], tr[2])
		in := row.Task.InElems()
		mem := func(m nn.Layer) int64 {
			_, el := nn.TrainCost(m, in)
			return device.TrainMemoryBytes(el, fed.BatchSize)
		}
		memSub := func(s *modular.SubModel) int64 {
			return device.TrainMemoryBytes(subTrainElems(s, in), fed.BatchSize)
		}
		for _, devName := range []string{"jetson-nano", "raspberry-pi-4b"} {
			fm, hm, m1, m2 := mem(full), mem(hfl), memSub(n1), memSub(n2)
			tb.AddRow(row.Task.Name, devName,
				metrics.FmtBytes(fm), metrics.FmtBytes(hm), metrics.FmtBytes(m1), metrics.FmtBytes(m2),
				fmt.Sprintf("%.2fx", float64(fm)/float64(m1)))
		}
	}
	return tb
}

// RunFig9 reproduces Figure 9: per-batch training latency of the deployed
// models on Jetson Nano and Raspberry Pi.
func RunFig9(opt Options) *metrics.Table {
	tb := metrics.NewTable("Fig 9: per-batch training latency during adaptation",
		"task", "device", "full model", "HeteroFL", "Nebula (m1)", "Nebula (m2)", "full/Nebula")
	rows := Table1Rows(opt)
	taskRows := [][3]int{{0, 0, 0}, {1, 2, 5}, {3, 0, 0}, {5, 5, 10}}
	for _, tr := range taskRows {
		row := rows[tr[0]]
		full, hfl, n1, n2 := deployedModels(opt, row.Task, tr[1], tr[2])
		in := row.Task.InElems()
		for _, devName := range []string{"jetson-nano", "raspberry-pi-4b"} {
			cls := device.ClassByName(devName)
			p := device.Profile{ComputeFLOPS: cls.ComputeFLOPS, MemoryBytes: cls.MemoryBytes, BandwidthBps: cls.BandwidthBps}
			lat := func(fwd int) float64 { return p.TrainBatchLatency(fwd, fed.BatchSize) }
			fullF, _ := nn.ForwardCost(full, in)
			hflF, _ := nn.ForwardCost(hfl, in)
			n1F := n1.ExecutedFlops(nil)
			n2F := n2.ExecutedFlops(nil)
			tb.AddRow(row.Task.Name, devName,
				metrics.FmtDur(lat(fullF)), metrics.FmtDur(lat(hflF)), metrics.FmtDur(lat(n1F)), metrics.FmtDur(lat(n2F)),
				fmt.Sprintf("%.2fx", lat(fullF)/lat(n1F)))
		}
	}
	return tb
}

// subTrainElems estimates the training memory footprint elements of a
// sub-model (2×params + 2×activations + input, as nn.TrainCost).
func subTrainElems(s *modular.SubModel, inElems int) int {
	params := nn.ParamCount(s.Params())
	_, act := nn.ForwardCost(s.Stem, inElems)
	return 2*params + 2*act + inElems
}
