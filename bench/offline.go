package main

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/modular"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/solve"
	"repro/internal/tensor"
)

// offline_cloud: the on-cloud stage, single stream. One operation is one
// cycle on the image10-resnet modular model: build the model from the seeded
// stream, TrainEndToEnd (2 epochs), AbilityEnhance (1 epoch). The tensor/nn
// shapes are those of sim_cnn_sync, used through routed full-model training.
//
// Every cycle starts from a fresh model because the stage is run that way in
// practice, and because it keeps the workload stationary: training one model
// on and on over the same proxy set drives it to convergence, where a cycle
// costs twice what it did at the start, so the time per cycle would depend on
// how many cycles a run gets through.

const offlineE2EEpochs = 2

type offlineInstance struct {
	cfg   runConfig
	task  *fed.Task
	model *modular.Model
	proxy *data.Dataset
	tc    modular.TrainConfig
	rng   *tensor.RNG

	cycles                int
	firstEpoch, lastEpoch float64   // Σ over cycles of the first / last e2e epoch loss
	e2eMs, aeMs           []float64 // per-cycle stage times of the last phase
}

func setupOffline(cfg runConfig) (instance, error) {
	task := fed.Image10Task(cloudSeed+30, fed.ScaleQuick)
	rng := tensor.NewRNG(cfg.Seed + 40)
	o := &offlineInstance{cfg: cfg, task: task, rng: rng}
	o.proxy = data.MakeBalancedDataset(rng, task.Gen, data.DefaultEnv(), cfg.pick(8, 3))
	o.tc = modular.DefaultTrainConfig()
	o.tc.GroupSize = task.GroupSize
	// One untimed cycle lets lazy allocation and the scratch arena settle.
	if err := o.cycle(nil, true); err != nil {
		return nil, err
	}
	return o, nil
}

// cycle runs one operation on one worker: the kernels run serially on the
// calling goroutine. That is the plain single-worker baseline, and it is what
// keeps this workload readable on a shared machine — with every GEMM split
// over both cores and joined again, a neighbour slowing either core slows
// every kernel, and the cycle time swung by 26 % between passes.
//
// With check set the cycle also verifies the assignment masks against the
// sub-task matrix they were solved on; that costs an extra selector pass, so
// timed cycles skip it.
func (o *offlineInstance) cycle(rec *span.Recorder, check bool) error {
	var err error
	tensor.WithSerialKernels(func() { err = o.stages(rec, check) })
	return err
}

func (o *offlineInstance) stages(rec *span.Recorder, check bool) error {
	tid, _ := rec.Trace(int64(o.cycles + 1))
	root := rec.Start(tid, 0, "bench.cycle")
	defer root.End()

	sp := rec.Start(tid, root.ID(), "modular.build")
	o.model = o.task.BuildModular(o.rng)
	sp.End()

	sp = rec.Start(tid, root.ID(), "modular.train_e2e")
	sw := obs.StartTimer()
	e2e := o.tc
	e2e.Epochs = offlineE2EEpochs
	losses := o.model.TrainEndToEnd(o.rng, o.proxy, e2e)
	o.e2eMs = append(o.e2eMs, 1e3*sw.Seconds())
	sp.End()
	if len(losses) != offlineE2EEpochs {
		return fmt.Errorf("TrainEndToEnd returned %d epoch losses, want %d", len(losses), offlineE2EEpochs)
	}
	o.firstEpoch += losses[0]
	o.lastEpoch += losses[len(losses)-1]

	var h [][][]float64
	if check {
		h = o.model.SubTaskMatrix(o.proxy, o.tc.GroupSize)
	}
	sp = rec.Start(tid, root.ID(), "modular.ability_enhance")
	sw = obs.StartTimer()
	ae := o.tc
	ae.Epochs = 1
	masks := o.model.AbilityEnhance(o.rng, o.proxy, ae)
	o.aeMs = append(o.aeMs, 1e3*sw.Seconds())
	sp.End()
	o.cycles++
	for l := range h {
		if err := checkMask(h[l], masks[l], o.tc); err != nil {
			return fmt.Errorf("cycle %d layer %d: %w", o.cycles, l, err)
		}
	}
	return nil
}

// checkMask verifies an Eq. 1 assignment: every sub-task holds between one
// and κ₂ modules, and no module carries more than κ₁ load — except that
// AssignSubTasks seeds every sub-task's strongest module unconditionally, so
// a module may carry its seed entries even past the cap.
func checkMask(h [][]float64, mask [][]bool, tc modular.TrainConfig) error {
	if _, maxPerTask := solve.MaskStats(h, mask); maxPerTask > tc.MaxModulesPerTask {
		return fmt.Errorf("a sub-task holds %d modules, budget %d", maxPerTask, tc.MaxModulesPerTask)
	}
	if len(h) == 0 {
		return nil
	}
	load := make([]float64, len(h[0]))
	seed := make([]float64, len(h[0]))
	for t := range mask {
		n, best := 0, 0
		for i, on := range mask[t] {
			if on {
				n++
				load[i] += h[t][i]
			}
			if h[t][i] > h[t][best] {
				best = i
			}
		}
		if n == 0 {
			return fmt.Errorf("sub-task %d has no module", t)
		}
		seed[best] += h[t][best]
	}
	for i := range load {
		if limit := math.Max(tc.LoadCap, seed[i]); load[i] > limit+1e-9 {
			return fmt.Errorf("module %d carries load %.4f, limit %.4f", i, load[i], limit)
		}
	}
	return nil
}

func (o *offlineInstance) run(b budget, rec *span.Recorder) (phase, error) {
	o.e2eMs, o.aeMs = nil, nil
	ph := phase{lanes: 1}
	sw := obs.StartTimer()
	for !b.spent(sw, len(ph.opMs)) {
		op := obs.StartTimer()
		if err := o.cycle(rec, false); err != nil {
			return ph, err
		}
		ph.opMs = append(ph.opMs, 1e3*op.Seconds())
	}
	ph.wall = sw.Seconds()
	// Each cycle consumes the proxy set once per training epoch.
	ph.units = float64((offlineE2EEpochs + 1) * o.proxy.Len() * len(ph.opMs))
	return ph, nil
}

func (o *offlineInstance) finish(ts *traceSummary) (map[string]float64, error) {
	if !(o.lastEpoch < o.firstEpoch) {
		return nil, fmt.Errorf("over %d cycles the last end-to-end epoch's loss (Σ %.4f) is not below the first's (Σ %.4f)",
			o.cycles, o.lastEpoch, o.firstEpoch)
	}
	e2eMs, aeMs := median(o.e2eMs), median(o.aeMs)
	// One more cycle, untimed, with the mask check on.
	if err := o.cycle(nil, true); err != nil {
		return nil, err
	}
	for _, p := range o.model.Params() {
		if !allFinite(p.W.Data) {
			return nil, fmt.Errorf("model parameter %q is not finite", p.Name)
		}
	}
	if ts == nil {
		return nil, nil
	}
	x, y := o.proxy.All()
	logits := o.model.Forward(x, nil, false)
	correct := 0
	for i := range y {
		if logits.ArgMaxRow(i) == y[i] {
			correct++
		}
	}
	n := float64(o.proxy.Len())
	return map[string]float64{
		"quality.final_acc":                     float64(correct) / n,
		"modular.train_e2e_ms_per_sample":       e2eMs / (offlineE2EEpochs * n),
		"modular.ability_enhance_ms_per_sample": aeMs / n,
	}, nil
}

func (o *offlineInstance) probeInputs() probeInputs {
	return probeInputs{task: o.task, model: o.model, local: o.proxy, proxy: o.proxy, seed: o.cfg.Seed}
}

func (o *offlineInstance) close() {}
