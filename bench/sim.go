package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/data"
	"repro/internal/edgenet"
	"repro/internal/experiments"
	"repro/internal/fed"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// The two simulated-fleet workloads drive fed.Nebula's round engine in
// process, one round per operation.

const simWarmupRounds = 5

// simInstance is a set-up sim workload: a pre-trained Nebula strategy, its
// fleet and the private registry its round metrics land in.
type simInstance struct {
	cfg   runConfig
	task  *fed.Task
	proxy *data.Dataset
	nb    *fed.Nebula
	reg   *obs.Registry
	rng   *tensor.RNG // master stream of the online rounds

	static    []*fed.Client             // fixed fleet (sim_cnn_sync)
	fleet     *experiments.DynamicFleet // churning pool (sim_mlp_wire_async)
	stepEvery int                       // fleet.Step() before every stepEvery-th round
	perRound  int                       // devices sampled per round

	traceBuf  *bytes.Buffer // sim-time JSONL trace, attached on the traced pass
	accBefore float64       // fleet accuracy after warm-up, before timed rounds

	rounds       int // rounds run so far, warm-up included
	launchedSync int // devices launched by bulk-sync rounds (no fault ledger there)
	pendingPeak  int
	fleetBuildMs float64
	stepMs       []float64

	// The most recent timed phase: how far the counters moved over it, and
	// the offset into traceBuf where it began.
	last          simCounters
	lastTraceFrom int
}

func (s *simInstance) clients() []*fed.Client {
	if s.fleet != nil {
		return s.fleet.Active()
	}
	return s.static
}

// simCounters is the strategy's cumulative accounting: the cost ledger, the
// round metrics on the private registry and the fault model's tallies.
type simCounters struct {
	costs                        fed.Costs
	landed, late, droppedPending float64
	prepS, parallelS, aggregateS float64
	lost                         int64
}

// since returns how far the counters moved from c0 to c.
func (c simCounters) since(c0 simCounters) simCounters {
	return simCounters{
		costs: fed.Costs{
			BytesUp:   c.costs.BytesUp - c0.costs.BytesUp,
			BytesDown: c.costs.BytesDown - c0.costs.BytesDown,
			SimTime:   c.costs.SimTime - c0.costs.SimTime,
			Rounds:    c.costs.Rounds - c0.costs.Rounds,
		},
		landed:         c.landed - c0.landed,
		late:           c.late - c0.late,
		droppedPending: c.droppedPending - c0.droppedPending,
		prepS:          c.prepS - c0.prepS,
		parallelS:      c.parallelS - c0.parallelS,
		aggregateS:     c.aggregateS - c0.aggregateS,
		lost:           c.lost - c0.lost,
	}
}

func (s *simInstance) counters() simCounters {
	fams := s.reg.Snapshot()
	fs := s.nb.Faults.Stats()
	return simCounters{
		costs:          s.nb.Costs(),
		landed:         famValue(fams, "nebula_fed_updates_aggregated_total", ""),
		late:           famValue(fams, "nebula_fed_late_updates_total", ""),
		droppedPending: famValue(fams, "nebula_fed_churn_events_total", `event="drop_pending"`),
		prepS:          famValue(fams, "nebula_fed_phase_wall_seconds", `phase="prep"`),
		parallelS:      famValue(fams, "nebula_fed_phase_wall_seconds", `phase="parallel"`),
		aggregateS:     famValue(fams, "nebula_fed_phase_wall_seconds", `phase="aggregate"`),
		lost:           fs.PushFailures + fs.SkippedRounds,
	}
}

// famValue reads one child of a registry snapshot: a counter or gauge value,
// or a histogram's sum. Missing children read as 0.
func famValue(fams []obs.Family, name, labels string) float64 {
	for i := range fams {
		if fams[i].Name != name {
			continue
		}
		for _, p := range fams[i].Points {
			if p.Labels == labels {
				if fams[i].Type == obs.TypeHistogram {
					return p.Sum
				}
				return p.Value
			}
		}
	}
	return 0
}

// oneRound advances the environment when due and runs one online round,
// returning the round's wall milliseconds. Fleet steps are timed apart:
// they are the data layer's cost, not the round's.
func (s *simInstance) oneRound(rec *span.Recorder) float64 {
	next := s.nb.Costs().Rounds + 1
	if s.fleet != nil && s.rounds > 0 && s.rounds%s.stepEvery == 0 {
		tid, _ := rec.Trace(int64(next))
		sp := rec.Start(tid, 0, "data.fleet_step")
		sw := obs.StartTimer()
		s.fleet.Step()
		s.stepMs = append(s.stepMs, 1e3*sw.Seconds())
		sp.End()
	}
	clients := s.clients()
	if s.fleet == nil {
		s.launchedSync += min(s.perRound, len(clients))
	}
	// Same key as fed.Nebula uses for its fed.round span, so the program's
	// round tree shares this root's trace id.
	tid, _ := rec.Trace(int64(next))
	sp := rec.Start(tid, 0, "bench.round")
	sp.SetRound(next)
	sw := obs.StartTimer()
	s.nb.Round(s.rng, clients)
	ms := 1e3 * sw.Seconds()
	sp.End()
	s.rounds++
	if p := s.nb.PendingStragglers(); p > s.pendingPeak {
		s.pendingPeak = p
	}
	return ms
}

func (s *simInstance) run(b budget, rec *span.Recorder) (phase, error) {
	s.nb.Spans = rec
	defer func() { s.nb.Spans = nil }()
	if rec != nil && s.traceBuf == nil {
		s.traceBuf = &bytes.Buffer{}
		s.nb.Trace = trace.New(s.traceBuf)
	}
	c0 := s.counters()
	s.lastTraceFrom = 0
	if s.traceBuf != nil {
		s.lastTraceFrom = s.traceBuf.Len()
	}
	ph := phase{lanes: 1}
	sw := obs.StartTimer()
	for !b.spent(sw, len(ph.opMs)) {
		ph.opMs = append(ph.opMs, s.oneRound(rec))
	}
	ph.wall = sw.Seconds()
	s.last = s.counters().since(c0)
	ph.units = s.last.landed
	return ph, nil
}

func (s *simInstance) finish(ts *traceSummary) (map[string]float64, error) {
	costs := s.nb.Costs()
	if costs.Rounds != s.rounds {
		return nil, fmt.Errorf("Costs.Rounds = %d after %d rounds", costs.Rounds, s.rounds)
	}
	if err := s.checkLedger(); err != nil {
		return nil, err
	}
	for _, p := range s.nb.Model.Params() {
		if !allFinite(p.W.Data) {
			return nil, fmt.Errorf("cloud model parameter %q is not finite", p.Name)
		}
	}
	d := s.last
	if ts != nil {
		// The sim-time trace of the traced phase must replay to exactly the
		// cost movement the strategy accounted live.
		events, err := trace.Read(bytes.NewReader(s.traceBuf.Bytes()[s.lastTraceFrom:]))
		if err != nil {
			return nil, err
		}
		sum := trace.Summarize(events)
		if sum.Rounds != d.costs.Rounds || sum.BytesUp != d.costs.BytesUp || sum.BytesDown != d.costs.BytesDown ||
			math.Abs(sum.SimTime-d.costs.SimTime) > 1e-9*math.Max(1, d.costs.SimTime) {
			return nil, fmt.Errorf("trace.Summarize %+v disagrees with Costs movement %+v", sum, d.costs)
		}
	}
	// Accuracy last: evaluating charges downloads for devices that never
	// took part, which is not part of any round's ledger.
	acc := s.nb.LocalAccuracy(s.clients())
	// A static fleet may lose 0.05. The shifting fleet rotates half of every
	// device's classes each step and may be evaluated one round after a
	// step: over 20 seeds it lost up to 0.038, so it gets 0.10.
	tol := 0.05
	if s.fleet != nil {
		tol = 0.10
	}
	if s.cfg.Smoke {
		tol = 0.25 // a handful of devices with 60 test samples each is a coarse estimate
	}
	fmt.Fprintf(s.cfg.Log, "fleet accuracy %.4f after warm-up, %.4f after %d rounds\n", s.accBefore, acc, s.rounds)
	if acc < s.accBefore-tol {
		return nil, fmt.Errorf("final accuracy %.4f fell more than %.2f below the pre-run %.4f", acc, tol, s.accBefore)
	}
	if ts == nil {
		return nil, nil
	}
	n := math.Max(float64(d.costs.Rounds), 1)
	vals := map[string]float64{
		"quality.final_acc":        acc,
		"data.fleet_build_ms":      s.fleetBuildMs,
		"data.fleet_step_ms":       median(s.stepMs),
		"fed.fetch_self_ms":        1e3 * ts.selfByKind["fed.fetch"] / n,
		"fed.train_self_ms":        1e3 * ts.selfByKind["fed.train"] / n,
		"fed.push_self_ms":         1e3 * ts.selfByKind["fed.push"] / n,
		"fed.prep_ms":              1e3 * d.prepS / n,
		"fed.parallel_ms":          1e3 * d.parallelS / n,
		"fed.aggregate_ms":         1e3 * d.aggregateS / n,
		"fed.late_updates":         d.late,
		"fed.lost_updates":         float64(d.lost),
		"fed.dropped_pending":      d.droppedPending,
		"fed.pending_peak":         float64(s.pendingPeak),
		"fed.sim_round_latency_ms": 1e3 * d.costs.SimTime / n,
	}
	if d.landed > 0 {
		vals["wire.bytes_per_update"] = float64(d.costs.Total()) / d.landed
	}
	if roundS := ts.durByKind["bench.round"]; roundS > 0 {
		vals["fed.serial_share"] = (roundS - d.parallelS) / roundS
	}
	if d.parallelS > 0 {
		vals["fed.worker_idle_share"] = math.Max(0, 1-ts.durByKind["fed.device"]/(float64(s.cfg.workers())*d.parallelS))
	}
	return vals, nil
}

// checkLedger balances launched device-rounds against their outcomes over the
// whole run. Bulk-sync rounds without faults must land every launch. With the
// fault model on, every launched device rolls one fetch, so Fetches counts
// launches; a launch is skipped (fetch lost, nothing cached), loses its push,
// lands, is dropped with a departing device, or is still pending. The public
// counters do not say whether a dropped or pending launch had already lost
// its push, so the balance is checked as the two-sided bound that overlap
// allows.
func (s *simInstance) checkLedger() error {
	c := s.counters()
	if s.nb.Faults == nil {
		if int(c.landed) != s.launchedSync {
			return fmt.Errorf("ledger: %d updates landed of %d launched on a clean synchronous link", int(c.landed), s.launchedSync)
		}
		return nil
	}
	fs := s.nb.Faults.Stats()
	open := float64(fs.Fetches-fs.SkippedRounds-fs.PushFailures) - c.landed
	inFlight := c.droppedPending + float64(s.nb.PendingStragglers())
	if open < 0 || open > inFlight {
		return fmt.Errorf("ledger: %d launched, %d skipped, %d pushes lost, %d landed leaves %d unaccounted (dropped+pending = %d)",
			fs.Fetches, fs.SkippedRounds, fs.PushFailures, int(c.landed), int(open), int(inFlight))
	}
	return nil
}

func (s *simInstance) probeInputs() probeInputs {
	cl := s.clients()
	return probeInputs{task: s.task, model: s.nb.Model, local: cl[0].Dev.Train, proxy: s.proxy, seed: s.cfg.Seed}
}

func (s *simInstance) close() {}

// warmUp runs the untimed rounds every sim workload starts with and records
// the accuracy the timed rounds must not fall below.
func (s *simInstance) warmUp() {
	for i := 0; i < simWarmupRounds; i++ {
		s.oneRound(nil)
	}
	s.accBefore = s.nb.LocalAccuracy(s.clients())
}

func newSim(cfg runConfig, task *fed.Task, fcfg fed.Config, proxyPerClass, pretrainEpochs int) *simInstance {
	fcfg.Rounds = 1
	fcfg.Workers = cfg.workers()
	s := &simInstance{cfg: cfg, task: task, reg: obs.NewRegistry(), perRound: fcfg.DevicesPerRound}
	s.proxy = data.MakeBalancedDataset(tensor.NewRNG(cloudSeed+40), task.Gen, data.DefaultEnv(), proxyPerClass)
	s.nb = fed.NewNebula(task, fcfg)
	s.nb.TrainCfg.Epochs = pretrainEpochs
	s.nb.Metrics = fed.NewRoundMetrics(s.reg)
	s.nb.Pretrain(tensor.NewRNG(cloudSeed+60), s.proxy)
	s.rng = tensor.NewRNG(cfg.Seed + 70)
	return s
}

// setupSimCNN: bulk-synchronous image10-resnet rounds on a static fleet over
// the analytic link, no faults.
func setupSimCNN(cfg runConfig) (instance, error) {
	fcfg := fed.DefaultConfig()
	fcfg.LocalEpochs = 1
	fcfg.DevicesPerRound = cfg.pick(8, 3)
	s := newSim(cfg, fed.Image10Task(cloudSeed+30, fed.ScaleQuick), fcfg, cfg.pick(16, 4), cfg.pick(2, 1))
	sw := obs.StartTimer()
	frng := tensor.NewRNG(cfg.Seed + 50)
	fleet := data.NewFleet(frng, s.task.Gen, data.PartitionConfig{
		// Every device holds the same volume (two full batches and a ragged
		// one), so a round's work does not depend on which devices the
		// seed happens to sample.
		NumDevices: cfg.pick(16, 4), ClassesPerDevice: 2, MinVolume: cfg.pick(40, 20), MaxVolume: cfg.pick(40, 20),
	})
	s.static = fed.NewClients(frng, fleet)
	s.fleetBuildMs = 1e3 * sw.Seconds()
	s.warmUp()
	return s, nil
}

// setupSimMLP: semi-async har-mlp rounds over a churning, drifting pool with
// the top-k wire codec on the simulated link and a lossy-link fault model.
func setupSimMLP(cfg runConfig) (instance, error) {
	fcfg := fed.DefaultConfig()
	fcfg.LocalEpochs = 1
	fcfg.DevicesPerRound = cfg.pick(24, 6)
	fcfg.Async = true
	fcfg.WireCompress = true
	fcfg.WireTopK = 0.25
	s := newSim(cfg, fed.HARTask(cloudSeed+30, fed.ScaleQuick), fcfg, cfg.pick(40, 8), cfg.pick(5, 1))
	s.nb.Faults = fed.NewFaultModel(edgenet.FaultConfig{Seed: cfg.Seed, Drop: 0.1, Delay: 5 * time.Millisecond})
	sw := obs.StartTimer()
	// DefaultChurn: leave 0.10, rejoin 0.5, enrol 0.08, bursts 0.15, two
	// devices pinned as permanent stragglers.
	s.fleet = experiments.NewDynamicFleet(tensor.NewRNG(cfg.Seed+50), s.task, cfg.pick(48, 12), 0.5, experiments.DefaultChurn())
	s.fleetBuildMs = 1e3 * sw.Seconds()
	s.stepEvery = cfg.pick(10, 3)
	s.warmUp()
	return s, nil
}

func allFinite(v []float32) bool {
	for _, x := range v {
		if f := float64(x); math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}
