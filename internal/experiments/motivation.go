package experiments

import (
	"fmt"
	"sort"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// RunFig1a reproduces Figure 1(a): on-device accuracy per time slot under
// data-distribution shift, for a static cloud model, a static edge model, an
// edge model updated with one individual device's data, and the ideal edge
// model strengthened collaboratively with the new data of every device in
// the same environment.
func RunFig1a(opt Options) *metrics.Figure {
	rng := tensor.NewRNG(opt.Seed)
	task := fed.Image100Task(opt.Seed+10, opt.Scale)
	proxy := data.MakeBalancedDataset(rng, task.Gen, data.DefaultEnv(), opt.ProxyPerClass)
	cfg := opt.Config

	// The paper's motivating setup: several devices share the same changing
	// application context (e.g. cameras watching related scenes). "Updated
	// individual" fine-tunes with one device's data; "updated collaborative"
	// is the ideal where the edge model is strengthened by the new data of
	// all devices in the same environment.
	n := opt.Devices / 3
	if n < 4 {
		n = 4
	}
	m := task.Classes / 4
	sharedClasses := data.AllClasses(task.Classes)[:m]
	devices := make([]*data.DeviceData, n)
	for i := range devices {
		env := data.RandomEnv(rng)
		devices[i] = data.NewDeviceData(rng, task.Gen, i, sharedClasses, env, 40+rng.Intn(40))
	}

	// Static cloud model: the full model, frozen after pre-deployment
	// training. Static edge model: a quarter-width model, likewise frozen.
	staticCloud := task.BuildFull(rng, 1.0)
	fed.TrainLayer(rng, staticCloud, proxy, opt.PretrainEpochs, cfg.LR, fed.BatchSize, nil)
	staticEdge := task.BuildFull(rng, 0.25)
	fed.TrainLayer(rng, staticEdge, proxy, opt.PretrainEpochs, cfg.LR, fed.BatchSize, nil)
	individual := nn.CloneLayer(staticEdge)
	collaborative := nn.CloneLayer(staticEdge)

	fig := metrics.NewFigure("Fig 1(a): accuracy per time slot under data shift", "time slot", "mean local accuracy")
	sCloud := fig.AddSeries("static-cloud")
	sEdge := fig.AddSeries("static-edge")
	sLA := fig.AddSeries("updated-individual")
	sCollab := fig.AddSeries("updated-collaborative")

	evalAll := func(mdl nn.Layer) float64 {
		var sum float64
		for _, d := range devices {
			sum += fed.EvalLayer(mdl, d.TestSet(cfg.TestPerDevice))
		}
		return sum / float64(len(devices))
	}

	slots := 8
	for slot := 0; slot <= slots; slot++ {
		if slot > 0 {
			// The shared environment shifts: rotate one class for everyone
			// and refresh half of each device's data.
			rot := (sharedClasses[len(sharedClasses)-1] + 1) % task.Classes
			copy(sharedClasses, sharedClasses[1:])
			sharedClasses[len(sharedClasses)-1] = rot
			pooled := data.NewDataset(task.Gen.SampleShape(), task.Classes)
			for _, d := range devices {
				d.Classes = append(d.Classes[:0], sharedClasses...)
				d.ReplaceData(0.5)
				pooled.Append(d.Train)
			}
			fed.TrainLayer(rng, individual, devices[0].Train, 2, cfg.LR, fed.BatchSize, nil)
			fed.TrainLayer(rng, collaborative, pooled, 2, cfg.LR, fed.BatchSize, nil)
		}
		x := float64(slot)
		sCloud.Add(x, evalAll(staticCloud))
		sEdge.Add(x, evalAll(staticEdge))
		sLA.Add(x, evalAll(individual))
		sCollab.Add(x, evalAll(collaborative))
		opt.logf("fig1a slot %d done", slot)
	}
	return fig
}

// RunFig1b reproduces Figure 1(b): inference latency versus co-running
// process count on a Jetson-Nano-class device, for two mobile-CNN cost
// profiles (MobileNetV2- and ShuffleNetV2-like, modelled as full- and
// half-width variants of the task CNN).
func RunFig1b(opt Options) *metrics.Table {
	rng := tensor.NewRNG(opt.Seed)
	task := fed.Image10Task(opt.Seed, opt.Scale)
	mobile := task.BuildFull(rng, 1.0)  // MobileNetV2-like cost profile
	shuffle := task.BuildFull(rng, 0.5) // ShuffleNetV2-like (lighter)
	fwdM, _ := nn.ForwardCost(mobile, task.InElems())
	fwdS, _ := nn.ForwardCost(shuffle, task.InElems())

	mon := device.NewMonitor(rng, device.JetsonNano())
	tb := metrics.NewTable("Fig 1(b): inference latency vs co-running processes (Jetson Nano class)",
		"#processes", "mobilenet-like (ms)", "shufflenet-like (ms)", "slowdown")
	base := 0.0
	for procs := 1; procs <= 4; procs++ {
		mon.SetBackgroundProcs(procs - 1) // "#processes" includes the model itself
		p := mon.Profile()
		lm := p.InferenceLatency(fwdM) * 1e3
		ls := p.InferenceLatency(fwdS) * 1e3
		if procs == 1 {
			base = lm
		}
		tb.AddRow(procs, fmt.Sprintf("%.3f", lm), fmt.Sprintf("%.3f", ls), fmt.Sprintf("%.2fx", lm/base))
	}
	return tb
}

// RunFig2 reproduces Figure 2: the heterogeneous-resource survey — (a)
// device RAM distribution, (b) inference-latency spread of mobile SoCs vs
// IoT boards, and (c) peak memory and latency of inference vs training for
// three vision-model profiles.
func RunFig2(opt Options) []*metrics.Table {
	rng := tensor.NewRNG(opt.Seed)

	// (a) RAM capacity histogram over a sampled population.
	const n = 2000
	buckets := []struct {
		label  string
		lo, hi int64
	}{
		{"<2", 0, 2 << 30}, {"2~4", 2 << 30, 4 << 30}, {"4~6", 4 << 30, 6 << 30},
		{"6~8", 6 << 30, 8 << 30}, {"8~10", 8 << 30, 10 << 30}, {"10~12", 10 << 30, 12 << 30},
		{">=12", 12 << 30, 1 << 62},
	}
	counts := make([]int, len(buckets))
	var latMobile, latIoT []float64
	task := fed.Image10Task(opt.Seed, opt.Scale)
	model := task.BuildFull(rng, 1.0)
	fwd, _ := nn.ForwardCost(model, task.InElems())
	for i := 0; i < n; i++ {
		c := device.SampleClass(rng)
		for bi, b := range buckets {
			if c.MemoryBytes >= b.lo && c.MemoryBytes < b.hi {
				counts[bi]++
			}
		}
		lat := float64(fwd) / c.ComputeFLOPS * 1e3
		if c.Mobile {
			latMobile = append(latMobile, lat)
		} else {
			latIoT = append(latIoT, lat)
		}
	}
	ta := metrics.NewTable("Fig 2(a): on-device RAM capacity distribution", "RAM (GB)", "fraction")
	for bi, b := range buckets {
		ta.AddRow(b.label, metrics.FmtPct(float64(counts[bi])/n))
	}

	tb := metrics.NewTable("Fig 2(b): inference latency distribution (ms)", "population", "p10", "p50", "p90")
	tb.AddRow("mobile SoCs", pct(latMobile, 0.1), pct(latMobile, 0.5), pct(latMobile, 0.9))
	tb.AddRow("IoT devices", pct(latIoT, 0.1), pct(latIoT, 0.5), pct(latIoT, 0.9))

	// (c) inference vs training footprint for three model profiles.
	tc := metrics.NewTable("Fig 2(c): memory footprint and latency, inference vs training (Jetson Nano)",
		"model", "disk", "infer mem", "train mem", "infer lat", "train lat")
	profiles := []struct {
		name string
		m    nn.Layer
		in   int
	}{
		{"vgg-like", nn.NewVGGLike(rng, 3, 16, []int{16, 32, 32}, 100, 1.0), 3 * 16 * 16},
		{"resnet-like", nn.NewResNetLike(rng, 3, 16, []int{16, 32}, 10, 1.0), 3 * 16 * 16},
		{"mlp", nn.NewMLP(rng, 64, []int{128, 128}, 6, 1.0), 64},
	}
	nano := device.Profile{ComputeFLOPS: device.JetsonNano().ComputeFLOPS, MemoryBytes: device.JetsonNano().MemoryBytes, BandwidthBps: 50e6}
	for _, pr := range profiles {
		cost := device.CostOf(pr.m, pr.in)
		inferMem := device.InferenceMemoryBytes(pr.m, pr.in)
		trainMem := device.TrainMemoryBytes(cost.TrainMemEl, fed.BatchSize)
		tc.AddRow(pr.name,
			metrics.FmtBytes(cost.Bytes),
			metrics.FmtBytes(inferMem),
			metrics.FmtBytes(trainMem),
			metrics.FmtDur(nano.InferenceLatency(cost.FwdFLOPs)),
			metrics.FmtDur(nano.TrainBatchLatency(cost.FwdFLOPs, fed.BatchSize)),
		)
	}
	return []*metrics.Table{ta, tb, tc}
}

func pct(xs []float64, q float64) string {
	if len(xs) == 0 {
		return "-"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return fmt.Sprintf("%.3f", s[i])
}
