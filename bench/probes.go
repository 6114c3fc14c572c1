package main

import (
	"bytes"
	"runtime"
	"strings"

	"repro/internal/data"
	"repro/internal/edgenet"
	"repro/internal/fed"
	"repro/internal/modular"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/solve"
	"repro/internal/tensor"
)

// Layer probes: timed calls from the benchmark into public functions of one
// layer, on inputs taken from the workload that just ran (its model, its
// data, its seed). They run on the traced pass only, after the workload's
// checks, so the ones that mutate the model (aggregation, offline training)
// cannot disturb a measured or checked value.

type probeInputs struct {
	task  *fed.Task
	model *modular.Model
	local *data.Dataset // one device's local data
	proxy *data.Dataset // the cloud's proxy data
	seed  int64
}

// timeIt calls fn until minS seconds have passed (at least three calls, one
// under smoke) and returns the median seconds per call.
func timeIt(cfg runConfig, fn func()) float64 {
	minS, minCalls := 0.05, 3
	if cfg.Smoke {
		minS, minCalls = 0, 1
	}
	var s []float64
	total := obs.StartTimer()
	for len(s) < minCalls || total.Seconds() < minS {
		sw := obs.StartTimer()
		fn()
		s = append(s, sw.Seconds())
	}
	return median(s)
}

func runProbes(in probeInputs, cfg runConfig) map[string]float64 {
	vals := map[string]float64{}
	rng := tensor.NewRNG(in.seed + 90)
	probeTensor(cfg, rng, vals)
	probeNN(cfg, in, rng, vals)
	sub, imp := probeModular(cfg, in, vals)
	probeSolve(cfg, in, imp, vals)
	probeWire(cfg, sub.BackboneVector(), rng, vals)
	probeMutating(cfg, in, sub, imp, rng, vals)
	return vals
}

// kernelModeCode turns tensor.KernelMode into a number so it can ride in the
// metric table: 0 portable, 1 strict-sse, 2 strict-avx, 3 fast-avx2.
func kernelModeCode() float64 {
	switch m := tensor.KernelMode(); {
	case m == "fast-avx2":
		return 3
	case m == "strict-avx":
		return 2
	case m == "strict-sse":
		return 1
	case strings.HasPrefix(m, "strict-portable"):
		return 0
	}
	return -1
}

// probeTensor reuses the shapes of cmd/nebula-bench so numbers stay
// comparable with BENCH_kernels.json.
func probeTensor(cfg runConfig, rng *tensor.RNG, vals map[string]float64) {
	vals["tensor.kernel_mode"] = kernelModeCode()
	for _, g := range []struct {
		name    string
		m, n, k int
	}{{"128", 128, 128, 128}, {"64x256x576", 64, 256, 576}} {
		a, b, c := tensor.New(g.m, g.k), tensor.New(g.k, g.n), tensor.New(g.m, g.n)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)
		s := timeIt(cfg, func() {
			tensor.Gemm(false, false, g.m, g.n, g.k, 1, a.Data, b.Data, 0, c.Data)
		})
		vals["tensor.gemm_gflops."+g.name] = 2 * float64(g.m) * float64(g.n) * float64(g.k) / s / 1e9
	}
	for _, cs := range []struct {
		name  string
		g     tensor.ConvGeom
		outC  int
		batch int
	}{
		{"b16_c16x32_12x12", tensor.ConvGeom{Channels: 16, Height: 12, Width: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}, 32, 16},
		{"b16_c64x64_16x16", tensor.ConvGeom{Channels: 64, Height: 16, Width: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, 64, 16},
	} {
		g := cs.g
		w := tensor.New(cs.outC, g.Kdim())
		rng.FillNormal(w, 0, 1)
		dw := make([]float32, cs.outC*g.Kdim())
		var src, out, grad, dx [][]float32
		for i := 0; i < cs.batch; i++ {
			x := tensor.New(g.Channels, g.Height, g.Width)
			gr := tensor.New(cs.outC, g.OutH(), g.OutW())
			rng.FillNormal(x, 0, 1)
			rng.FillNormal(gr, 0, 1)
			src, grad = append(src, x.Data), append(grad, gr.Data)
			out = append(out, make([]float32, cs.outC*g.Cols()))
			dx = append(dx, make([]float32, g.Channels*g.Height*g.Width))
		}
		var cw tensor.ConvWeights
		s := timeIt(cfg, func() {
			cw.PackFwd(w.Data, cs.outC, g)
			for j := range src {
				cw.Conv(src[j], out[j])
			}
			cw.PackBwd(w.Data, cs.outC, g)
			for j := range src {
				cw.ConvBack(src[j], grad[j], dw, dx[j])
			}
			cw.Release()
		})
		vals["tensor.conv_fwdbwd_ms."+cs.name] = 1e3 * s
	}
}

// firstBatch is the first n samples of a dataset as one batch.
func firstBatch(ds *data.Dataset, n int) (*tensor.Tensor, []int) {
	if n > ds.Len() {
		n = ds.Len()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return ds.Batch(idx)
}

// probeNN splits one batch-16 training step of the task's full model into
// forward, backward and optimizer, and times the two quantizers.
func probeNN(cfg runConfig, in probeInputs, rng *tensor.RNG, vals map[string]float64) {
	full := in.task.BuildFull(rng, 1)
	params := full.Params()
	opt := nn.NewSGD(0.01, 0.9, 1e-4)
	x, y := firstBatch(in.proxy, 16)
	var fwd, bwd, step []float64
	timeIt(cfg, func() {
		sw := obs.StartTimer()
		logits := full.Forward(x, true)
		fwd = append(fwd, sw.Seconds())
		_, grad := nn.SoftmaxCrossEntropy(logits, y)
		sw = obs.StartTimer()
		full.Backward(grad)
		bwd = append(bwd, sw.Seconds())
		sw = obs.StartTimer()
		nn.ClipGradNorm(params, 5)
		opt.Step(params)
		step = append(step, sw.Seconds())
	})
	vals["nn.fwd_ms"] = 1e3 * median(fwd)
	vals["nn.bwd_ms"] = 1e3 * median(bwd)
	vals["nn.opt_ms"] = 1e3 * median(step)

	idx := make([]int, 16)
	for i := range idx {
		idx[i] = i % in.proxy.Len()
	}
	vals["data.batch_us"] = 1e6 * timeIt(cfg, func() { in.proxy.Batch(idx) })

	vec := make([]float32, 1<<16)
	for i := range vec {
		vec[i] = float32(rng.NormFloat64())
	}
	mb := float64(len(vec)) * 4 / 1e6
	vals["nn.quantize8_mb_s"] = mb / timeIt(cfg, func() { nn.QuantizeChunks(vec, 1024) })
	vals["nn.quantize_f16_mb_s"] = mb / timeIt(cfg, func() { nn.QuantizeF16(vec) })
}

// poolBudget is stem and head plus frac of the module pool, the shape of
// budget every caller of Derive in this repo builds.
func poolBudget(m *modular.Model, frac float64) modular.Budget {
	stem, head, mods := m.ModuleCosts()
	var b modular.Budget
	for _, layer := range mods {
		for _, mc := range layer {
			b.CommBytes += float64(mc.Bytes)
			b.FwdFLOPs += float64(mc.FwdFLOPs)
			b.MemElems += float64(mc.TrainMemEl)
		}
	}
	b.CommBytes = float64(stem.Bytes+head.Bytes) + frac*b.CommBytes
	b.FwdFLOPs = float64(stem.FwdFLOPs+head.FwdFLOPs) + frac*b.FwdFLOPs
	b.MemElems = float64(stem.TrainMemEl+head.TrainMemEl) + frac*b.MemElems
	return b
}

// probeModular times the read-only path a fetch takes — importance, derive
// (knapsack included), extract — and one sub-model training step. It
// returns the derived sub-model and importance for the later probes.
func probeModular(cfg runConfig, in probeInputs, vals map[string]float64) (*modular.SubModel, [][]float64) {
	m := in.model
	sel := m.Selector.Clone()
	x, _ := firstBatch(in.local, 64)
	var imp [][]float64
	vals["modular.importance_us"] = 1e6 * timeIt(cfg, func() { imp = m.ImportanceWith(sel, x) })
	budget := poolBudget(m, 0.45)
	var active [][]int
	vals["modular.derive_us"] = 1e6 * timeIt(cfg, func() { active = m.Derive(imp, budget, false) })
	var sub *modular.SubModel
	vals["modular.extract_us"] = 1e6 * timeIt(cfg, func() { sub = m.Extract(active) })

	bx, by := firstBatch(in.local, 16)
	step := m.Extract(active)
	params := step.Params()
	opt := nn.NewSGD(0.01, 0.9, 1e-4)
	vals["modular.submodel_step_ms"] = 1e3 * timeIt(cfg, func() {
		logits := step.Forward(bx, true)
		_, grad := nn.SoftmaxCrossEntropy(logits, by)
		step.Backward(grad)
		nn.ClipGradNorm(params, 5)
		opt.Step(params)
	})
	return sub, imp
}

// probeSolve times the two knapsack solvers on the instance Derive builds
// and the Eq. 1 assignment on the model's first-layer sub-task matrix.
func probeSolve(cfg runConfig, in probeInputs, imp [][]float64, vals map[string]float64) {
	m := in.model
	stem, head, mods := m.ModuleCosts()
	b := poolBudget(m, 0.45)
	budgets := []float64{
		b.CommBytes - float64(stem.Bytes+head.Bytes),
		b.FwdFLOPs - float64(stem.FwdFLOPs+head.FwdFLOPs),
		b.MemElems - float64(stem.TrainMemEl+head.TrainMemEl),
	}
	var items []solve.Item
	var forced []int
	for l := range mods {
		best := 0
		for i, c := range mods[l] {
			items = append(items, solve.Item{
				Value: imp[l][i],
				Costs: []float64{float64(c.Bytes), float64(c.FwdFLOPs), float64(c.TrainMemEl)},
			})
			if imp[l][i] > imp[l][best] {
				best = i
			}
		}
		forced = append(forced, len(items)-len(mods[l])+best)
	}
	vals["solve.greedy_us"] = 1e6 * timeIt(cfg, func() { solve.GreedyKnapsack(items, budgets, forced) })
	vals["solve.bb_us"] = 1e6 * timeIt(cfg, func() { solve.BranchBoundKnapsack(items, budgets, forced, 200000) })

	h := m.SubTaskMatrix(in.proxy, in.task.GroupSize)
	tc := modular.DefaultTrainConfig()
	acfg := solve.AssignmentConfig{LoadCap: tc.LoadCap, MaxModulesPerTask: tc.MaxModulesPerTask}
	vals["solve.assign_ms"] = 1e3 * timeIt(cfg, func() { solve.AssignSubTasks(h[0], acfg) })
}

// probeWire times the v2 codec on a real sub-model vector in the three ways
// the workloads use it: dense full, dense delta and top-k delta.
func probeWire(cfg runConfig, vec []float32, rng *tensor.RNG, vals map[string]float64) {
	base := make([]float32, len(vec))
	for i := range vec {
		base[i] = vec[i] + float32(0.01*(rng.Float64()-0.5))
	}
	mb := float64(len(vec)) * 4 / 1e6
	var dense, delta, topk *edgenet.WirePayload
	vals["wire.encode_dense_mb_s"] = mb / timeIt(cfg, func() { dense = edgenet.EncodeVec(vec, nil, edgenet.WireOpts{}) })
	vals["wire.encode_delta_mb_s"] = mb / timeIt(cfg, func() { delta = edgenet.EncodeVec(vec, base, edgenet.WireOpts{}) })
	vals["wire.encode_topk_mb_s"] = mb / timeIt(cfg, func() { topk = edgenet.EncodeVec(vec, base, edgenet.WireOpts{TopK: 0.25}) })
	vals["wire.decode_mb_s"] = mb / timeIt(cfg, func() {
		if _, err := edgenet.DecodeVec(dense, nil); err != nil {
			panic(err) // a payload EncodeVec just built always decodes
		}
	})
	raw := float64(len(vec)) * 4
	vals["wire.ratio_delta"] = raw / float64(delta.WireBytes())
	vals["wire.ratio_topk"] = raw / float64(topk.WireBytes())

	const reps = 8
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < reps; i++ {
		edgenet.EncodeVec(vec, base, edgenet.WireOpts{})
	}
	runtime.ReadMemStats(&m1)
	vals["wire.alloc_b_per_kb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / reps / (raw / 1024)
}

// framingOverhead is the share of socket bytes that is not codec payload
// when one dense sub-model payload crosses the gob frame codec.
func framingOverhead(vec []float32) float64 {
	p := edgenet.EncodeVec(vec, nil, edgenet.WireOpts{})
	var buf bytes.Buffer
	codec := edgenet.NewCodec(&buf)
	if err := codec.Send(&edgenet.Response{OK: true, Payload: &p.Header}); err != nil {
		return 0
	}
	for i := range p.Chunks {
		if err := codec.Send(&p.Chunks[i]); err != nil {
			return 0
		}
	}
	_, out := codec.Traffic()
	if out == 0 {
		return 0
	}
	return float64(out-p.WireBytes()) / float64(out)
}

// probeMutating runs the probes that change the model: aggregation of eight
// identical-structure updates, and one epoch of each offline stage on a
// 32-sample slice of the proxy data.
func probeMutating(cfg runConfig, in probeInputs, sub *modular.SubModel, imp [][]float64, rng *tensor.RNG, vals map[string]float64) {
	m := in.model
	const nUpd = 8
	updates := make([]*modular.Update, nUpd)
	for i := range updates {
		updates[i] = &modular.Update{Sub: m.Extract(sub.Mapping), Importance: imp, Weight: 1}
	}
	vals["modular.aggregate_us_per_update"] = 1e6 * timeIt(cfg, func() { m.AggregateModuleWise(updates) }) / nUpd

	n := 32
	if n > in.proxy.Len() {
		n = in.proxy.Len()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i * in.proxy.Len() / n
	}
	small := in.proxy.Subset(idx)
	tc := modular.DefaultTrainConfig()
	tc.Epochs = 1
	tc.GroupSize = in.task.GroupSize
	vals["modular.train_e2e_ms_per_sample"] = 1e3 * timeIt(cfg, func() { m.TrainEndToEnd(rng, small, tc) }) / float64(n)
	vals["modular.ability_enhance_ms_per_sample"] = 1e3 * timeIt(cfg, func() { m.AbilityEnhance(rng, small, tc) }) / float64(n)
}
