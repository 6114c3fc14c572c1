package experiments

import (
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// ContinuousResult carries the Figure 10 series plus the Figure 11 summary
// data for one task.
type ContinuousResult struct {
	Task    string
	Fig     *metrics.Figure
	MeanAcc map[string]float64
	// AdaptTime is the mean simulated seconds per adaptation step.
	AdaptTime map[string]float64
	// Faults carries the lossy-link outcome tallies when the run injected
	// network faults (nil on a clean network).
	Faults *metrics.Counters
}

// RunContinuous reproduces Figures 10 and 11: model accuracy over repeated
// adaptation steps (50% local data replaced per step) for No Adaptation,
// Local Adaptation, Nebula and its two ablations (w/o local training, w/o
// cloud), on every task.
func RunContinuous(opt Options) []*ContinuousResult {
	var out []*ContinuousResult
	for ti, task := range fed.AllTasks(opt.Seed+30, opt.Scale) {
		out = append(out, runContinuousTask(opt, task, int64(ti)))
	}
	return out
}

func runContinuousTask(opt Options, task *fed.Task, salt int64) *ContinuousResult {
	cfg := continualConfig(opt)
	rng := tensor.NewRNG(opt.Seed + 40 + salt)
	proxy := data.MakeBalancedDataset(rng, task.Gen, data.DefaultEnv(), opt.ProxyPerClass)

	mkNebula := func(local, cloud bool) *fed.Nebula {
		nb := opt.newNebula(task, cfg)
		nb.LocalTraining = local
		nb.CloudCollaboration = cloud
		nb.TrainCfg.Epochs = opt.PretrainEpochs
		return nb
	}
	fullNebula := mkNebula(true, true)
	// Only the full system logs, so one -trace file holds one coherent run.
	fullNebula.Trace = opt.Trace
	systems := []struct {
		name string
		s    fed.System
	}{
		{"no-adapt", fed.NewNoAdapt(task, cfg)},
		{"local-adapt", fed.NewLocalAdapt(task, cfg)},
		{"nebula-wo-local", mkNebula(false, true)},
		{"nebula-wo-cloud", mkNebula(true, false)},
		{"nebula", fullNebula},
	}

	fig := metrics.NewFigure("Fig 10: accuracy over adaptation steps — "+task.Name, "adaptation step", "mean local accuracy")
	res := &ContinuousResult{Task: task.Name, Fig: fig, MeanAcc: map[string]float64{}, AdaptTime: map[string]float64{}}
	// The systems share no state — each has its own fleet, streams and
	// seeds — so each runs its steps back to back.
	for _, s := range systems {
		s.s.Pretrain(tensor.NewRNG(opt.Seed+60+salt), proxy)
		acc := fig.AddSeries(s.name)
		clients := continualFleet(tensor.NewRNG(opt.Seed+50+salt), task, max(opt.Devices/3, 4))
		adaptSteps(opt, s.s, acc, "fig10 "+task.Name+" "+s.name, shifting(clients))
		res.MeanAcc[s.name] = acc.Mean()
		if c := s.s.Costs(); c.Rounds > 0 {
			res.AdaptTime[s.name] = c.SimTime / float64(c.Rounds)
		}
	}
	if opt.Faults.Enabled() {
		res.Faults = fullNebula.Faults.Stats().Counters("link faults — nebula, " + task.Name)
	}
	return res
}

// continualConfig is the round config of every continual-adaptation run:
// one communication round per adaptation step, over the whole fleet.
func continualConfig(opt Options) fed.Config {
	cfg := opt.Config
	cfg.Rounds = 1
	cfg.DevicesPerRound = opt.Devices
	return cfg
}

// The per-device sample range of continual-adaptation fleets.
const minVolume, maxVolume = 50, 120

// continualClasses is a continual-adaptation device's class count (label
// skew): a third of the task's classes, at least 2.
func continualClasses(task *fed.Task) int { return max(task.Classes/3, 2) }

// continualFleet builds n devices of the continual-adaptation shape.
func continualFleet(rng *tensor.RNG, task *fed.Task, n int) []*fed.Client {
	return fed.NewClients(rng, data.NewFleet(rng, task.Gen, data.PartitionConfig{
		NumDevices: n, ClassesPerDevice: continualClasses(task),
		MinVolume: minVolume, MaxVolume: maxVolume,
	}))
}

// shifting is the environment of a fixed fleet: every step replaces
// shiftFrac of each device's local data and advances its runtime dynamics.
func shifting(clients []*fed.Client) func() []*fed.Client {
	return func() []*fed.Client {
		for _, c := range clients {
			c.Dev.Shift(shiftFrac)
			c.Mon.Step()
		}
		return clients
	}
}

// adaptSteps runs the continual-adaptation protocol (Fig 10/11, faults,
// straggler): at every step env evolves the environment and returns the
// devices present, sys adapts them on the step's stream, and acc records
// their mean local accuracy.
func adaptSteps(opt Options, sys fed.System, acc *metrics.Series, label string, env func() []*fed.Client) {
	for step := 1; step <= opt.AdaptSteps; step++ {
		clients := env()
		sys.Adapt(tensor.NewRNG(opt.Seed+int64(step)), clients)
		acc.Add(float64(step), sys.LocalAccuracy(clients))
		opt.logf("%s step %d/%d (%d devices)", label, step, opt.AdaptSteps, len(clients))
	}
}

// Fig11Table summarizes continuous-adaptation results: mean accuracy over
// all steps plus mean per-step adaptation time (Figure 11).
func Fig11Table(results []*ContinuousResult) *metrics.Table {
	tb := metrics.NewTable("Fig 11: average adaptation accuracy (%) and per-step adaptation time",
		"task", "metric", "no-adapt", "local-adapt", "nebula-wo-local", "nebula-wo-cloud", "nebula")
	for _, r := range results {
		tb.AddRow(r.Task, "accuracy",
			f2(100*r.MeanAcc["no-adapt"]), f2(100*r.MeanAcc["local-adapt"]),
			f2(100*r.MeanAcc["nebula-wo-local"]), f2(100*r.MeanAcc["nebula-wo-cloud"]), f2(100*r.MeanAcc["nebula"]))
		tb.AddRow(r.Task, "adapt time",
			"-", metrics.FmtDur(r.AdaptTime["local-adapt"]),
			metrics.FmtDur(r.AdaptTime["nebula-wo-local"]), metrics.FmtDur(r.AdaptTime["nebula-wo-cloud"]), metrics.FmtDur(r.AdaptTime["nebula"]))
	}
	return tb
}

// --- dynamic environment generator ---------------------------------------

// ChurnConfig shapes a DynamicFleet's per-step evolution. All probabilities
// are per step; every draw comes from the fleet's own seeded stream, so two
// fleets built from the same seed evolve identically.
type ChurnConfig struct {
	// LeaveProb is the chance an active device departs this step.
	LeaveProb float64
	// RejoinProb is the chance a departed device comes back (with its old
	// identity, data, and any cached sub-model the strategy still holds).
	RejoinProb float64
	// NewProb is the chance a brand-new device (fresh ID, fresh data) enrolls.
	NewProb float64
	// BurstProb is the chance an active device gets a transient contention
	// burst (background processes pinned to the maximum for this step).
	BurstProb float64
	// Stragglers permanently pins the first N pool devices at maximum
	// background contention: their effective FLOPS crater and they become the
	// bulk-sync round's pacing tail.
	Stragglers int
	// MinActive floors the active fleet size; departures that would go below
	// it are skipped.
	MinActive int
}

// DefaultChurn is the straggler experiment's environment: modest churn, a
// couple of permanently overloaded devices, occasional contention bursts.
func DefaultChurn() ChurnConfig {
	return ChurnConfig{LeaveProb: 0.10, RejoinProb: 0.5, NewProb: 0.08, BurstProb: 0.15, Stragglers: 2, MinActive: 4}
}

// DynamicFleet extends the continuous-adaptation protocol (per-step Shift +
// Monitor.Step) into a full dynamic-environment generator: seeded device
// churn (leave / rejoin / brand-new enrollment), concept drift, and
// time-varying contention including pinned permanent stragglers. Step order
// is canonical pool order throughout, so the evolution replays bitwise.
type DynamicFleet struct {
	pool   []*fed.Client
	active []bool
	churn  ChurnConfig

	rng       *tensor.RNG
	gen       data.Generator
	classesM  int
	shiftFrac float64
	nextID    int
}

// NewDynamicFleet builds a pool of n initially active devices for the task's
// generator. classesM is the per-device class count (label skew); shiftFrac
// is the per-step concept drift.
func NewDynamicFleet(rng *tensor.RNG, task *fed.Task, n int, shiftFrac float64, churn ChurnConfig) *DynamicFleet {
	f := &DynamicFleet{
		pool:      continualFleet(rng, task, n),
		active:    make([]bool, n),
		churn:     churn,
		rng:       rng,
		gen:       task.Gen,
		classesM:  continualClasses(task),
		shiftFrac: shiftFrac,
		nextID:    n,
	}
	for i := range f.active {
		f.active[i] = true
	}
	f.pinStragglers()
	return f
}

// pinStragglers turns the configured head of the pool into permanent
// stragglers: weakest-tier hardware on a congested uplink, held at maximum
// background contention. Neither the class swap nor SetBackgroundProcs
// consumes randomness, so re-pinning after each Monitor.Step keeps every
// stream's draw count unchanged.
func (f *DynamicFleet) pinStragglers() {
	cls := device.RaspberryPi()
	cls.Name = "straggler-" + cls.Name
	cls.BandwidthBps = 2e6 // congested edge uplink, ~20-100x below the fleet
	for i := 0; i < f.churn.Stragglers && i < len(f.pool); i++ {
		f.pool[i].Mon.Class = cls
		f.pool[i].Mon.SetBackgroundProcs(4)
	}
}

// Active returns the currently present devices in canonical pool order.
func (f *DynamicFleet) Active() []*fed.Client {
	out := make([]*fed.Client, 0, len(f.pool))
	for i, c := range f.pool {
		if f.active[i] {
			out = append(out, c)
		}
	}
	return out
}

// ActiveCount returns how many devices are currently present.
func (f *DynamicFleet) ActiveCount() int {
	n := 0
	for _, a := range f.active {
		if a {
			n++
		}
	}
	return n
}

// Step advances the environment by one adaptation step: membership churn
// (leave / rejoin / enroll), concept drift and runtime dynamics on every
// pooled device (departed devices keep drifting — their data is stale when
// they come back), transient contention bursts, and straggler re-pinning.
func (f *DynamicFleet) Step() {
	// Membership churn, canonical pool order.
	for i := range f.pool {
		if f.active[i] {
			if f.rng.Float64() < f.churn.LeaveProb && f.ActiveCount() > f.churn.MinActive {
				f.active[i] = false
			}
		} else if f.rng.Float64() < f.churn.RejoinProb {
			f.active[i] = true
		}
	}
	if f.rng.Float64() < f.churn.NewProb {
		f.enroll()
	}
	// Concept drift + runtime dynamics on the whole pool.
	for i, c := range f.pool {
		c.Dev.Shift(f.shiftFrac)
		c.Mon.Step()
		if f.active[i] && f.rng.Float64() < f.churn.BurstProb {
			c.Mon.SetBackgroundProcs(4)
		}
	}
	f.pinStragglers()
}

// enroll adds one brand-new active device to the pool: fresh ID, freshly
// drawn local task and hardware class.
func (f *DynamicFleet) enroll() {
	nClasses := f.gen.NumClasses()
	start := f.rng.Intn(nClasses)
	classes := make([]int, f.classesM)
	for j := range classes {
		classes[j] = (start + j) % nClasses
	}
	vol := minVolume + f.rng.Intn(maxVolume-minVolume+1)
	dev := data.NewDeviceData(f.rng, f.gen, f.nextID, classes, data.RandomEnv(f.rng), vol)
	f.nextID++
	f.pool = append(f.pool, &fed.Client{Dev: dev, Mon: device.NewMonitor(f.rng, device.SampleClass(f.rng))})
	f.active = append(f.active, true)
}
