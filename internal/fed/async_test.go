package fed

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/edgenet"
	"repro/internal/modular"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// The semi-async engine's differential gates (docs/ASYNC.md): deadline-paced
// rounds with carried stragglers and fleet churn must replay bitwise and be
// independent of the worker count, exactly like the bulk-synchronous path.

// pinSlowDevice turns one client into a straggler: weakest-tier hardware on a
// congested uplink, held at maximum background contention. Neither mutation
// consumes randomness, so every stream's draw count is unchanged.
func pinSlowDevice(c *Client, bps float64) {
	cls := device.RaspberryPi()
	cls.Name = "straggler-" + cls.Name
	cls.BandwidthBps = bps
	c.Mon.Class = cls
	c.Mon.SetBackgroundProcs(4)
}

// runNebulaAsync mirrors runNebula with cfg.Async: a stable 8-device fleet
// with one moderately slow device, enough rounds for its work to overrun a
// deadline and land late.
func runNebulaAsync(t *testing.T, workers int, dropout float64, faults bool) ([]byte, Costs, float64, []float32) {
	t.Helper()
	rng := tensor.NewRNG(77)
	task := HARTask(78, ScaleQuick)
	cfg := tinyCfg()
	cfg.Rounds = 6
	cfg.DevicesPerRound = 6
	cfg.Workers = workers
	cfg.DropoutProb = dropout
	cfg.Async = true
	nb := NewNebula(task, cfg)
	nb.TrainCfg.Epochs = 1
	if faults {
		fc, err := edgenet.ParseFaultSpec("drop=0.3,seed=9")
		if err != nil {
			t.Fatal(err)
		}
		nb.Faults = NewFaultModel(fc)
	}
	var buf bytes.Buffer
	nb.Trace = trace.New(&buf)
	nb.Pretrain(rng, proxyFor(rng, task, 10))
	clients := harFleet(rng, task, 8, 2)
	pinSlowDevice(clients[0], 8e6)
	nb.Adapt(rng, clients)
	acc := nb.LocalAccuracy(clients)
	return buf.Bytes(), nb.Costs(), acc, nn.FlattenVector(nb.Model.Params(), nil)
}

// asyncChurnScenario drives the full semi-async lifecycle round by round: a
// calibration round, a deadline round where a hard-pinned straggler overruns
// and pends, a churn round where that straggler leaves with its update still
// in flight while a brand-new device joins, and a follow-up round. Costs are
// captured before any evaluation so they equal what the trace accounts. reg
// optionally binds a private registry (obs cross-check tests).
func asyncChurnScenario(t *testing.T, workers int, reg *obs.Registry) ([]byte, Costs, []float32, *Nebula) {
	t.Helper()
	return asyncChurnScenarioOver(t, workers, reg, false)
}

// asyncChurnScenarioOver is asyncChurnScenario with the link chosen: lossy
// puts the whole lifecycle on the simulated v2 wire (delta + top-k pushes)
// under a fault model, so parked sub-models, upload carriers and wire
// references cross pend, land, leave and join.
func asyncChurnScenarioOver(t *testing.T, workers int, reg *obs.Registry, lossy bool) ([]byte, Costs, []float32, *Nebula) {
	t.Helper()
	rng := tensor.NewRNG(77)
	task := HARTask(78, ScaleQuick)
	cfg := tinyCfg()
	cfg.DevicesPerRound = 8
	cfg.Workers = workers
	cfg.Async = true
	cfg.WireCompress = lossy
	if lossy {
		cfg.WireTopK = 0.25
	}
	nb := NewNebula(task, cfg)
	nb.TrainCfg.Epochs = 1
	if lossy {
		fc, err := edgenet.ParseFaultSpec("drop=0.4,seed=9")
		if err != nil {
			t.Fatal(err)
		}
		nb.Faults = NewFaultModel(fc)
	}
	if reg != nil {
		nb.Metrics = NewRoundMetrics(reg)
	}
	var buf bytes.Buffer
	nb.Trace = trace.New(&buf)
	nb.Pretrain(rng, proxyFor(rng, task, 10))
	all := harFleet(rng, task, 9, 2)
	straggler := all[0]
	pinSlowDevice(straggler, 1e6) // far past any deadline: guaranteed to pend
	base := all[:8]
	newcomer := all[8]
	nb.Round(rng, base) // round 1: bulk-sync calibration
	nb.Round(rng, base) // round 2: first deadline round; straggler overruns
	if nb.PendingStragglers() == 0 {
		t.Fatal("pinned straggler did not overrun the calibrated deadline")
	}
	// Round 3: the straggler departs with its update still in flight and a
	// brand-new device joins mid-experiment.
	churned := append(append([]*Client(nil), base[1:]...), newcomer)
	nb.Round(rng, churned)
	if nb.SubModelOf(newcomer.Dev.ID) == nil {
		t.Fatal("joining device did not receive a derived sub-model")
	}
	nb.Round(rng, churned) // round 4: steady state after churn
	return buf.Bytes(), nb.Costs(), nn.FlattenVector(nb.Model.Params(), nil), nb
}

func TestAsyncWorkersDifferential(t *testing.T) {
	// Dropout and faults on, so the skip/fallback/push-lost paths interleave
	// with carried stragglers in what must replay identically.
	log1, costs1, acc1, vec1 := runNebulaAsync(t, 1, 0.25, true)
	log4, costs4, acc4, vec4 := runNebulaAsync(t, 4, 0.25, true)
	if !bytes.Equal(log1, log4) {
		t.Fatalf("async trace differs between workers=1 (%d bytes) and workers=4 (%d bytes)", len(log1), len(log4))
	}
	if costs1 != costs4 {
		t.Fatalf("async costs differ: %+v vs %+v", costs1, costs4)
	}
	if acc1 != acc4 {
		t.Fatalf("async accuracy differs: %v vs %v", acc1, acc4)
	}
	if !reflect.DeepEqual(vec1, vec4) {
		t.Fatal("aggregated cloud model differs between worker counts in async mode")
	}
}

func TestAsyncLateUpdatesLand(t *testing.T) {
	log, _, _, _ := runNebulaAsync(t, 2, 0, false)
	events, err := trace.Read(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckSeq(events); err != nil {
		t.Fatal(err)
	}
	var stale, deadlineRounds int
	for _, e := range events {
		switch e.Kind {
		case trace.KindRoundStart:
			if e.Round == 1 && e.Deadline != 0 {
				t.Fatalf("calibration round must start with no deadline: %+v", e)
			}
			if e.Round > 1 {
				if e.Deadline <= 0 {
					t.Fatalf("round %d missing calibrated deadline: %+v", e.Round, e)
				}
				deadlineRounds++
			}
		case trace.KindClientUpdate:
			if e.Stale > 0 {
				stale++
				if e.Round < 2 {
					t.Fatalf("stale update cannot land before the first deadline round: %+v", e)
				}
			}
		}
	}
	if deadlineRounds != 5 {
		t.Fatalf("expected 5 deadline-paced rounds after calibration, got %d", deadlineRounds)
	}
	if stale == 0 {
		t.Fatal("the pinned straggler never landed a late update — the carry path is untested")
	}
}

func TestAsyncChurnLifecycle(t *testing.T) {
	log, _, _, nb := asyncChurnScenario(t, 2, nil)
	events, err := trace.Read(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckSeq(events); err != nil {
		t.Fatal(err)
	}
	stragglerID := 0 // all[0] in the scenario
	var sawLeave, sawDrop, sawJoin bool
	joinIdx, firstRound3Update := -1, -1
	var joinID int
	for i, e := range events {
		switch e.Kind {
		case trace.KindChurn:
			switch e.Note {
			case "leave":
				if e.Client != stragglerID {
					t.Fatalf("unexpected leaver: %+v", e)
				}
				sawLeave = true
			case "drop_pending":
				if e.Client != stragglerID || e.BytesDn <= 0 {
					t.Fatalf("drop_pending must charge the straggler's consumed download: %+v", e)
				}
				sawDrop = true
			case "join":
				if e.BytesDn <= 0 {
					t.Fatalf("joining device's bootstrap download not charged: %+v", e)
				}
				sawJoin, joinIdx, joinID = true, i, e.Client
			default:
				t.Fatalf("unknown churn event: %+v", e)
			}
		case trace.KindClientUpdate:
			if e.Round >= 3 && e.Client == stragglerID {
				t.Fatalf("departed straggler's dropped work still landed: %+v", e)
			}
			if e.Round == 3 && firstRound3Update == -1 {
				firstRound3Update = i
			}
		}
	}
	if !sawLeave || !sawDrop || !sawJoin {
		t.Fatalf("churn events missing: leave=%v drop_pending=%v join=%v", sawLeave, sawDrop, sawJoin)
	}
	// The join (and its bootstrap download) must precede the round's updates:
	// the device holds a derived sub-model before its first round.
	if firstRound3Update != -1 && joinIdx > firstRound3Update {
		t.Fatal("join event must precede the landing round's client updates")
	}
	if nb.SubModelOf(joinID) == nil {
		t.Fatal("joined device lost its sub-model")
	}
}

func TestAsyncChurnReplaysBitwise(t *testing.T) {
	log1, costs1, vec1, _ := asyncChurnScenario(t, 1, nil)
	log1b, costs1b, _, _ := asyncChurnScenario(t, 1, nil)
	log4, costs4, vec4, _ := asyncChurnScenario(t, 4, nil)
	if !bytes.Equal(log1, log1b) || costs1 != costs1b {
		t.Fatal("churn scenario diverges across replays")
	}
	if !bytes.Equal(log1, log4) {
		t.Fatalf("churn trace differs between workers=1 (%d bytes) and workers=4 (%d bytes)", len(log1), len(log4))
	}
	if costs1 != costs4 {
		t.Fatalf("churn costs differ across worker counts: %+v vs %+v", costs1, costs4)
	}
	if !reflect.DeepEqual(vec1, vec4) {
		t.Fatal("cloud model differs across worker counts under churn")
	}
}

// TestBulkSyncIgnoresChurn pins the one branch bulk-sync takes through the
// round engine: with cfg.Async off, a fleet whose membership changes between
// rounds — a pinned straggler leaves, a brand-new device joins — records no
// churn event and no churn or pend span, never calibrates a deadline, and
// carries nothing. The same fleet with cfg.Async on records the leave and
// the join.
func TestBulkSyncIgnoresChurn(t *testing.T) {
	run := func(async bool) ([]trace.Event, []span.Span, *Nebula) {
		rng := tensor.NewRNG(77)
		task := HARTask(78, ScaleQuick)
		cfg := tinyCfg()
		cfg.DevicesPerRound = 8
		cfg.Workers = 2
		cfg.Async = async
		nb := NewNebula(task, cfg)
		nb.TrainCfg.Epochs = 1
		rec := span.NewRecorder(1 << 12)
		rec.SetSampler(77, 1)
		nb.Spans = rec
		var buf bytes.Buffer
		nb.Trace = trace.New(&buf)
		nb.Pretrain(rng, proxyFor(rng, task, 10))
		all := harFleet(rng, task, 9, 2)
		pinSlowDevice(all[0], 1e6)
		churned := append(append([]*Client(nil), all[1:8]...), all[8])
		for _, fleet := range [][]*Client{all[:8], all[:8], churned, churned} {
			nb.Round(rng, fleet)
		}
		events, err := trace.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.CheckSeq(events); err != nil {
			t.Fatal(err)
		}
		return events, rec.Snapshot(), nb
	}

	events, spans, nb := run(false)
	for _, e := range events {
		if e.Kind == trace.KindChurn || e.Stale > 0 || (e.Kind == trace.KindRoundStart && e.Deadline != 0) {
			t.Fatalf("bulk-sync recorded an async event: %+v", e)
		}
	}
	for _, sp := range spans {
		if sp.Kind == "fed.churn" || sp.Kind == "fed.pend" || sp.Kind == "fed.land" {
			t.Fatalf("bulk-sync recorded a %s span: %+v", sp.Kind, sp)
		}
	}
	if d := nb.AsyncDeadline(); d != 0 {
		t.Fatalf("bulk-sync calibrated a deadline: %v", d)
	}
	if n := nb.PendingStragglers(); n != 0 {
		t.Fatalf("bulk-sync carries %d pending stragglers", n)
	}

	events, _, _ = run(true)
	notes := map[string]bool{}
	for _, e := range events {
		if e.Kind == trace.KindChurn {
			notes[e.Note] = true
		}
	}
	if !notes["leave"] || !notes["join"] {
		t.Fatalf("async run over the same fleet recorded churn %v, want leave and join", notes)
	}
}

// TestAsyncCostsMatchTrace pins the landing-round accounting contract
// (satellite of docs/ASYNC.md): live Costs and the trace's replayed Summary
// must agree exactly — including staleness-carried traffic, drop_pending
// charges, and join bootstrap downloads.
func TestAsyncCostsMatchTrace(t *testing.T) {
	log, costs, _, _ := asyncChurnScenario(t, 2, nil)
	assertCostsMatchTrace(t, log, costs)
}

func assertCostsMatchTrace(t *testing.T, log []byte, costs Costs) {
	t.Helper()
	events, err := trace.Read(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	sum := trace.Summarize(events)
	if sum.Rounds != costs.Rounds {
		t.Errorf("trace rounds %d, live %d", sum.Rounds, costs.Rounds)
	}
	if sum.BytesUp != costs.BytesUp {
		t.Errorf("trace bytes-up %d, live %d", sum.BytesUp, costs.BytesUp)
	}
	if sum.BytesDown != costs.BytesDown {
		t.Errorf("trace bytes-down %d, live %d", sum.BytesDown, costs.BytesDown)
	}
	if sum.SimTime != costs.SimTime {
		t.Errorf("trace sim time %v, live %v", sum.SimTime, costs.SimTime)
	}
}

func TestCalibrateDeadline(t *testing.T) {
	cases := []struct {
		times []float64
		want  float64
	}{
		{nil, 0},
		{[]float64{1}, 2},
		{[]float64{5, 1}, 2},           // lower median of an even count
		{[]float64{1, 2, 3, 100}, 4},   // tail straggler cannot drag the deadline
		{[]float64{3, 1, 2}, 4},        // unsorted input
		{[]float64{4, 4, 4, 4, 40}, 8}, // healthy-half anchored
	}
	for _, c := range cases {
		if got := calibrateDeadline(c.times); got != c.want {
			t.Errorf("calibrateDeadline(%v) = %v, want %v", c.times, got, c.want)
		}
	}
	in := []float64{9, 1}
	_ = calibrateDeadline(in)
	if in[0] != 9 || in[1] != 1 {
		t.Fatal("calibrateDeadline must not reorder the caller's slice")
	}
}

// TestCommitDeviceStalenessDecay pins the staleness weighting: a late
// update's aggregation weight decays by StalenessDecay^stale and its trace
// record carries the stale field; an on-time commit is untouched.
func TestCommitDeviceStalenessDecay(t *testing.T) {
	rng := tensor.NewRNG(21)
	task := HARTask(22, ScaleQuick)
	mkResult := func(nb *Nebula, c *Client) *nebulaResult {
		imp := nb.importanceWith(nb.Model.Selector.Clone(), c)
		active := nb.Model.Derive(imp, nb.deviceBudget(c), false)
		sub := nb.Model.Extract(active)
		return &nebulaResult{sub: sub, down: 10, up: 20, t: 1.5,
			update: &modular.Update{Sub: sub, Importance: imp, Weight: 8}}
	}
	run := func(cfg Config, stale int) (float64, trace.Event) {
		nb := NewNebula(task, cfg)
		nb.Model = task.BuildModular(tensor.NewRNG(23))
		var buf bytes.Buffer
		nb.Trace = trace.New(&buf)
		c := harFleet(rng, task, 1, 2)[0]
		u := nb.commitDevice(3, c, mkResult(nb, c), stale)
		if u == nil {
			t.Fatal("commit dropped a live update")
		}
		events, err := trace.Read(&buf)
		if err != nil || len(events) != 1 {
			t.Fatalf("events %d, err %v", len(events), err)
		}
		return u.Weight, events[0]
	}
	if w, e := run(tinyCfg(), 0); w != 8 || e.Stale != 0 || e.Round != 3 {
		t.Fatalf("on-time commit perturbed: weight %v, event %+v", w, e)
	}
	if w, e := run(tinyCfg(), 2); w != 8*0.25 || e.Stale != 2 {
		t.Fatalf("default decay 0.5^2 not applied: weight %v, event %+v", w, e)
	}
	cfg := tinyCfg()
	cfg.StalenessDecay = 0.25
	if w, e := run(cfg, 1); w != 8*0.25 || e.Stale != 1 {
		t.Fatalf("configured decay not applied: weight %v, event %+v", w, e)
	}
}
