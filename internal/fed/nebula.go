package fed

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/edgenet"
	"repro/internal/modular"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Nebula is the paper's system: a modularized cloud model trained offline
// (end-to-end + module ability-enhancing), and an online stage that derives
// personalized sub-models under per-device resource budgets, trains them on
// fresh local data, and aggregates them module-wise.
type Nebula struct {
	Task  *Task
	Model *modular.Model
	cfg   Config
	costs Costs

	// TrainCfg controls the offline stage.
	TrainCfg modular.TrainConfig
	// AbilityEnhancing toggles the Section 4.3 fine-tuning stage (ablation).
	AbilityEnhancing bool
	// LocalTraining=false gives the "Nebula w/o local training" variant:
	// devices fetch fresh sub-models but never update them (and upload
	// nothing).
	LocalTraining bool
	// CloudCollaboration=false gives the "Nebula w/o cloud" variant: one
	// initial derivation, then purely local updates.
	CloudCollaboration bool

	// Budget shaping. A device's Eq. 2 budget is the always-present
	// stem+head cost plus a capability-dependent fraction of the total
	// module pool cost: frac = PoolFraction(effectiveFLOPS, MinFraction,
	// MaxFraction). Runtime contention lowers effective FLOPS and therefore
	// shrinks the derived sub-model — the paper's accuracy-latency tradeoff
	// under inner runtime dynamics.
	MinFraction float64
	MaxFraction float64
	// ExactDerive switches the Eq. 2 solver to branch-and-bound.
	ExactDerive bool
	// PullBlend controls how strongly a refresh pulls the cloud's current
	// module parameters into a device's persistent sub-model (0 = keep local
	// weights, 1 = overwrite with cloud). Devices keep serving and training
	// their personalized sub-model across rounds; the pull imports the
	// knowledge other devices contributed to the shared modules.
	PullBlend float32
	// RederiveOverlap re-derives the sub-model structure when the Jaccard
	// overlap between the held modules and the freshly preferred selection
	// drops below it — i.e. when the local task changed enough that
	// different modules matter.
	RederiveOverlap float64

	// Trace optionally receives structured per-round events (nil = off).
	Trace *trace.Logger

	// Spans optionally records wall-clock causal spans (docs/OBSERVABILITY.md
	// "Tracing"): each sampled round is a root span with per-device children.
	// Whether a round is sampled is a deterministic keyed hash of the round
	// number — never an RNG draw — and spans are write-only, so artifacts
	// stay byte-identical with tracing on or off. Nil = tracing off.
	Spans *span.Recorder

	// Metrics optionally binds this strategy to a private obs registry
	// (tests, replay tooling). Nil uses the package default on
	// obs.Default(). Metrics are write-only telemetry: nothing in the round
	// logic reads them back, so they cannot perturb artifacts.
	Metrics *RoundMetrics

	// Faults optionally replays a lossy edge-cloud link (nil = clean
	// network). A device whose fetch is lost after retries degrades to its
	// cached sub-model (or sits the round out if it has none); a device
	// whose push is lost trains in vain but never stalls aggregation.
	Faults *FaultModel

	// subs holds each served device's sub-model; a device holds the
	// selector package exactly when it holds a sub-model here.
	subs map[int]*modular.SubModel
	// wireRefs holds the per-device delta-coding reference for the simulated
	// v2 link (cfg.WireCompress; internal/fed/wire.go): the reconstruction of
	// the device's last downlink, shared by both ends of the in-process
	// "wire". Snapshotted in prepRound, written back in commitDevice.
	wireRefs map[int]*edgenet.WireRef
	// workers are what each worker of the parallel phase keeps from round to
	// round: the simulated link's sender, whose arrays stop growing, and a
	// selector copy for importance probes, which takes the cloud selector's
	// weights in place at the start of each round (roundWorkers).
	workers []roundWorker
	// streams are the last round's per-device RNG streams, re-seeded in place
	// by the next round's split (splitStreams).
	streams []*tensor.RNG

	// async holds the round engine's coordinator state (docs/ASYNC.md),
	// lazily created on the first round and persisted across Adapt calls so
	// carried stragglers and the sim clock survive step boundaries.
	async *asyncState
}

// NewNebula builds the Nebula strategy with paper-like defaults.
func NewNebula(task *Task, cfg Config) *Nebula {
	tc := modular.DefaultTrainConfig()
	// The offline stage runs on the cloud where compute is plentiful; the
	// modularized MoE-style model also needs a longer schedule than a plain
	// model to train its selector and modules jointly.
	tc.Epochs = 2 * cfg.PretrainEpochs
	tc.GroupSize = task.GroupSize
	return &Nebula{
		Task:               task,
		cfg:                cfg,
		TrainCfg:           tc,
		AbilityEnhancing:   true,
		LocalTraining:      true,
		CloudCollaboration: true,
		MinFraction:        DefaultMinFraction,
		MaxFraction:        DefaultMaxFraction,
		PullBlend:          0.1,
		RederiveOverlap:    0.55,
		subs:               map[int]*modular.SubModel{},
		wireRefs:           map[int]*edgenet.WireRef{},
	}
}

func (s *Nebula) Name() string { return "Nebula" }

// Pretrain runs the offline on-cloud stage: modularize (done by the
// builder), end-to-end train with load balancing, then ability-enhance.
func (s *Nebula) Pretrain(rng *tensor.RNG, proxy *data.Dataset) {
	s.Model = s.Task.BuildModular(rng)
	s.Model.Offline(rng, proxy, s.TrainCfg, s.AbilityEnhancing)
}

// deviceBudget turns a resource profile into the Eq. 2 budget vector: the
// fixed stem+head cost plus a capability fraction of the full module pool.
func (s *Nebula) deviceBudget(c *Client) modular.Budget {
	return s.Model.PoolBudget(PoolFraction(c.Mon.Profile().ComputeFLOPS, s.MinFraction, s.MaxFraction))
}

// DefaultMinFraction and DefaultMaxFraction are Nebula's bounds on the share
// of the module pool one device may hold (Nebula.MinFraction, MaxFraction).
const (
	DefaultMinFraction = 0.2
	DefaultMaxFraction = 0.45
)

// PoolFraction is the device-budget policy: the fraction of the module pool
// a device may hold, from its effective compute (contention included),
// clamped to [lo, hi]. The simulator, nebula-edge and the testbed example all
// derive through it, so one device gets one sub-model size everywhere.
func PoolFraction(effectiveFLOPS, lo, hi float64) float64 {
	const (
		flagship = 1.2e12 // device.Catalogue top tier
		capExp   = 0.3    // sub-linear: a 10× slower device holds half the pool share
	)
	r := effectiveFLOPS / flagship
	if r <= 0 {
		return lo
	}
	return min(max(math.Pow(min(r, 1), capExp), lo), hi)
}

// deriveFresh builds the sub-model of a device the cloud has not served yet:
// probe importance on its local data, solve Eq. 2 under its current budget,
// extract. It only reads the cloud model, so workers may call it; sel is the
// caller's own selector copy (Selector.Clone; the round loop keeps one per
// worker), because the probe's Selector.Forward writes activation caches.
func (s *Nebula) deriveFresh(sel *modular.Selector, c *Client) *modular.SubModel {
	imp := s.Model.Probe(sel, c.Dev.Train)
	return s.Model.Extract(s.Model.Derive(imp, s.deviceBudget(c), s.ExactDerive))
}

// deriveOwn is serve's fresh callback for a fan-out over clients:
// deriveFresh on worker w's kept selector copy (roundWorkers), as the round's
// fan-out derives. Coordinator only; the callback is worker-safe.
func (s *Nebula) deriveOwn(clients []*Client) func(w int, c *Client) *modular.SubModel {
	workers := s.roundWorkers(tensor.WorkerCount(s.cfg.Workers, len(clients)))
	return func(w int, c *Client) *modular.SubModel { return s.deriveFresh(workers[w].sel, c) }
}

// record is the strategy's one accounting path: every fact that moves the
// ledgers — a round opening or closing, a device's traffic and time, an
// aggregation, a membership change, a transfer outside a round — is built as
// one trace.Event and handed here. record emits it and applies it to Costs
// and to the deterministic metric families through the steps a reader of the
// log runs (trace.Summary.Apply, RoundMetrics.apply), so the three agree
// after every call by construction. Serial coordinator only.
func (s *Nebula) record(e trace.Event) {
	s.Trace.Emit(e)
	s.costs.Apply(e)
	s.metrics().apply(e)
}

// mark records a marker span of kind under parent for device id in round:
// a churn event, a pending straggler, a late landing. A zero note or attempt
// (a landing's staleness) leaves that field unset.
func (s *Nebula) mark(t span.TraceID, parent span.SpanID, kind string, id, round int, note string, attempt int) {
	m := s.Spans.Start(t, parent, kind)
	m.SetDevice(id)
	m.SetRound(round)
	m.SetNote(note)
	m.SetAttempt(attempt)
	m.End()
}

// adoptFresh makes a deriveFresh sub-model the device's own and returns the
// bytes of its transfer — a pure download, selector included — for the caller
// to record: as the "join" of a newcomer to an async fleet, or as the
// "bootstrap" of a device served outside a round of its own. Serial
// coordinator only.
func (s *Nebula) adoptFresh(id int, sub *modular.SubModel) int64 {
	s.subs[id] = sub
	return sub.ParamBytes()
}

// Adapt runs cfg.Rounds online rounds (or, for the w/o-cloud variant, pure
// local updates). With cfg.Async the rounds are deadline-paced and
// staleness-aware (docs/ASYNC.md) instead of bulk-synchronous.
func (s *Nebula) Adapt(rng *tensor.RNG, clients []*Client) {
	if !s.CloudCollaboration {
		s.adaptLocalOnly(rng, clients)
		return
	}
	for r := 0; r < s.cfg.Rounds; r++ {
		s.round(rng, clients)
	}
}

// Round runs one online round.
func (s *Nebula) Round(rng *tensor.RNG, clients []*Client) { s.round(rng, clients) }

// deviceRound is one launched device's round, from launch to landing.
// prepRound creates it on the serial coordinator with every master-stream
// draw and shared-state read the device's work needs; the worker in
// runDevices fills in its outcome; land commits it in the round it lands in.
// A straggler's record pends in asyncState.pending as a copy, which holds no
// other device's update alive. A device that drops out of the round gets no
// record.
type deviceRound struct {
	c      *Client
	launch int     // round the work was launched in
	done   float64 // absolute sim time the work completes (deadline-paced rounds)

	// Set by prepRound. held is the device's stored sub-model and ref its
	// delta-coding reference, nil when it has none; the fault flags and extra
	// link times are the pre-drawn fate of its fetch and push.
	held                  *modular.SubModel
	ref                   *edgenet.WireRef
	stream                *tensor.RNG
	fetchLost, pushLost   bool
	fetchExtra, pushExtra float64

	// Set by the worker. sub is nil when the device sat the round out.
	sub    *modular.SubModel
	update *modular.Update
	down   int64
	up     int64
	t      float64 // slot candidate (link + train + fault time)
	// next is the device's new delta-coding reference when the round's
	// downlink ran through the compressed wire (nil otherwise).
	next *edgenet.WireRef
	// upBuf is the arena array under update's weights on the compressed wire.
	upBuf *tensor.Tensor
}

// roundPrep is the serial coordinator-prep output for one round: the record
// of every launched device, in canonical device order, captured before any
// worker starts.
type roundPrep struct {
	devs []deviceRound
	// Distributed-trace context for this round's launch set: the sampled
	// trace (0 = round unsampled) and the round root span workers parent
	// their device spans under. Decided serially in the coordinator, read
	// freely by workers.
	trace span.TraceID
	root  span.SpanID
}

// prepRound runs the serial coordinator-prep phase over the sampled devices:
// dropout rolls in canonical order, then one stream split per sampled device,
// dropped or not. Fault rolls are keyed hashes, but their stat counters
// mutate, so they are pre-drawn here too.
func (s *Nebula) prepRound(rng *tensor.RNG, part []*Client, round int) *roundPrep {
	p := &roundPrep{devs: make([]deviceRound, 0, len(part))}
	faultsBefore := s.Faults.Stats()
	for _, c := range part {
		if s.cfg.DropoutProb > 0 && rng.Float64() < s.cfg.DropoutProb {
			continue // device dropped out of this round
		}
		id := c.Dev.ID
		d := deviceRound{c: c, launch: round, held: s.subs[id], ref: s.wireRefs[id]} // refs are immutable; workers read freely
		var fetchOK bool
		fetchOK, d.fetchExtra = s.Faults.Fetch(round, id)
		d.fetchLost = !fetchOK
		switch {
		case fetchOK:
		case d.held != nil:
			s.Faults.NoteFallback()
		default:
			s.Faults.NoteSkip()
		}
		if s.LocalTraining && (fetchOK || d.held != nil) {
			var pushOK bool
			pushOK, d.pushExtra = s.Faults.Push(round, id)
			d.pushLost = !pushOK
		}
		p.devs = append(p.devs, d)
	}
	s.metrics().mirrorFaults(faultsBefore, s.Faults.Stats())
	s.streams = splitStreams(rng, s.streams, len(part))
	// Streams go by canonical index; p.devs is part without the dropped.
	k := 0
	for i, c := range part {
		if k < len(p.devs) && p.devs[k].c == c {
			p.devs[k].stream = s.streams[i]
			k++
		}
	}
	return p
}

// runDevices is the parallel phase: each device works against its own
// derived stream, sub-model, selector copy, and record. round is the launch
// round (used only for span annotations). Workers never emit the
// client_update record themselves — the coordinator does, at commit time, so
// the same body serves work that lands in its launch round and a straggler's
// that lands later.
func (s *Nebula) runDevices(p *roundPrep, round int) {
	workers := s.roundWorkers(tensor.WorkerCount(s.cfg.Workers, len(p.devs)))
	tensor.ParallelForWorkers(s.cfg.Workers, len(p.devs), func(w, i int) {
		wk := workers[w]
		d := &p.devs[i]
		c := d.c
		id := c.Dev.ID
		// Per-device wall-clock span under the round root. Recording is
		// write-only and the trace/parent came from the serial prep, so the
		// parallel fan-out stays artifact-deterministic.
		dspan := s.Spans.Start(p.trace, p.root, "fed.device")
		dspan.SetDevice(id)
		dspan.SetRound(round)
		defer dspan.End()
		if d.fetchLost && d.held == nil {
			// No cache to fall back on: sit the round out. The wasted link
			// time still bounds the slot (the device was trying).
			dspan.SetNote("fetch_lost_skip")
			d.t = d.fetchExtra
			return
		}
		// sub's backbone lists are built once, bb, and handed to every walk
		// of the round: refresh, training, push.
		var sub *modular.SubModel
		var bb modular.Backbone
		var bytes int64
		fspan := s.Spans.Start(p.trace, dspan.ID(), "fed.fetch")
		fspan.SetDevice(id)
		imp := s.Model.Probe(wk.sel, c.Dev.Train)
		if !d.fetchLost {
			active := s.Model.Derive(imp, s.deviceBudget(c), s.ExactDerive)
			if d.held != nil && overlapRatio(d.held.Mapping, active) >= s.RederiveOverlap {
				// Keep the personalized sub-model; pull the cloud's current
				// parameters for the held modules and blend them in. Under
				// WireCompress the pull crosses the simulated v2 link first,
				// so the device blends in the lossy reconstruction.
				sub = d.held
				bb = sub.Backbone()
				bytes, d.next = s.pullBlend(wk.enc, sub, bb, d.ref)
			} else {
				// First contact or the local task moved: new structure,
				// exact at 4 B/element or over the simulated v2 link — dense:
				// a fresh structure has no base to be sparse against.
				sub = s.Model.Extract(active)
				bb = sub.Backbone()
				bytes = bb.Bytes()
				if s.cfg.WireCompress {
					bytes, d.next = wireDownlink(wk.enc, sub, bb, d.ref)
				}
			}
			if d.held == nil {
				// First contact ships the selector package too.
				bytes += sub.SelectorBytes()
			}
		} else {
			// Download lost after retries: degrade to the cached sub-model —
			// train it on fresh local data without this round's cloud pull.
			fspan.SetNote("fetch_lost_cached")
			sub = d.held
			bb = sub.Backbone()
		}
		fspan.SetBytes(bytes)
		fspan.End()
		prof := c.Mon.Profile()
		t := prof.TransferTime(bytes) + d.fetchExtra
		if s.LocalTraining {
			tspan := s.Spans.Start(p.trace, dspan.ID(), "fed.train")
			tspan.SetDevice(id)
			trainParams(d.stream, sub, bb.Params, c.Dev.Train, s.cfg.LocalEpochs, s.cfg.LR, BatchSize, nil)
			tspan.End()
			upBytes := int64(nn.ParamCount(bb.Params)) * 4 // modules+stem+head; selector is not updated on edge
			_, fwd, _ := s.Model.SelectionCost(sub.Mapping)
			t += trainTime(prof, fwd, c.Dev.Train.Len(), s.cfg.LocalEpochs)
			t += d.pushExtra
			// A lost upload still trained (and improved the cached
			// sub-model), but this round aggregates without the device.
			if !d.pushLost {
				pspan := s.Spans.Start(p.trace, dspan.ID(), "fed.push")
				pspan.SetDevice(id)
				upSub := sub
				if s.cfg.WireCompress {
					// Push crosses the simulated v2 link: delta + top-k
					// against this round's downlink reconstruction (or the
					// last one, when the fetch was lost). The cloud
					// aggregates the wire's reconstruction; the device keeps
					// its full-precision local weights.
					ref := d.next
					if ref == nil {
						ref = d.ref
					}
					upBytes, upSub, d.upBuf = wireUplink(wk.enc, sub, bb, ref, edgenet.WireOpts{TopK: s.cfg.WireTopK})
				}
				d.update = &modular.Update{Sub: upSub, Importance: imp, Weight: float64(c.Dev.Train.Len()), ClassWeights: c.Dev.Train.ClassHistogram()}
				t += prof.TransferTime(upBytes)
				d.up = upBytes
				pspan.SetBytes(upBytes)
				pspan.End()
			}
		}
		d.sub, d.down, d.t = sub, bytes, t
	})
}

// roundWorker is what one worker of the parallel phase keeps across rounds.
type roundWorker struct {
	sel *modular.Selector
	enc *edgenet.Encoder
}

// roundWorkers returns n workers' kept state, the selector copies refreshed
// to the cloud selector's current weights. Serial coordinator only.
func (s *Nebula) roundWorkers(n int) []roundWorker {
	for len(s.workers) < n {
		s.workers = append(s.workers, roundWorker{enc: new(edgenet.Encoder)})
	}
	for w := range s.workers[:n] {
		s.workers[w].sel = s.Model.Selector.CloneInto(s.workers[w].sel)
	}
	return s.workers[:n]
}

// commitDevice folds one device's finished work into strategy state: fault
// notes, the client_update record, and strategy-map writes. It runs only on
// the serial coordinator, in the round the work lands in. A late update's
// aggregation weight decays by StalenessDecay^stale, stale being
// landing−launch in rounds (0 for on-time / bulk-sync). Returns the device's
// update for the aggregation list (nil if the device sat out or its push was
// lost).
func (s *Nebula) commitDevice(landing int, d *deviceRound) *modular.Update {
	id, stale := d.c.Dev.ID, landing-d.launch
	s.noteFaults(d)
	if d.sub == nil {
		return nil // sat the round out; the fault note above is its only record
	}
	s.record(trace.ClientUpdate(landing, id, d.sub.NumModules(), d.down, d.up, d.t, stale))
	s.subs[id] = d.sub
	if d.next != nil {
		// The replaced reference goes back: its one reader, this device's
		// worker, is done, and a device is not relaunched while its work pends.
		s.wireRefs[id].Release()
		s.wireRefs[id] = d.next
		s.metrics().wirePayloads.Inc()
	}
	if d.update != nil && stale > 0 {
		d.update.Weight *= math.Pow(s.stalenessDecay(), float64(stale))
	}
	return d.update
}

// noteFaults writes the trace notes of the link faults one device met in its
// work: a lost fetch (with or without a cached sub-model to train instead)
// and a lost push. Serial coordinator only.
func (s *Nebula) noteFaults(d *deviceRound) {
	if s.Trace == nil {
		return
	}
	note := func(what string) {
		s.Trace.Emit(trace.Event{Kind: trace.KindNote, Note: fmt.Sprintf("round %d device %d: %s", d.launch, d.c.Dev.ID, what)})
	}
	switch {
	case d.fetchLost && d.sub == nil:
		note("fetch lost, no cached sub-model, skipping round")
	case d.fetchLost:
		note("fetch lost, serving cached sub-model")
	}
	if d.pushLost {
		note("push lost, round aggregates without it")
	}
}

// stalenessDecay returns the configured decay with its default applied.
func (s *Nebula) stalenessDecay() float64 {
	if s.cfg.StalenessDecay > 0 {
		return s.cfg.StalenessDecay
	}
	return 0.5
}

// aggregate folds the round's landed updates into the cloud model and closes
// the round's accounting with the given slot time.
func (s *Nebula) aggregate(round int, updates []*modular.Update, slot float64) {
	if len(updates) > 0 {
		swAggregate := obs.StartTimer()
		s.Model.AggregateModuleWise(updates)
		s.record(trace.Aggregate(round, len(updates)))
		s.metrics().phaseAggregate.ObserveSince(swAggregate)
	}
	s.record(trace.RoundEnd(round, slot))
}

// land is the one place a round's device work enters strategy state — the
// canonical reduce of docs/PARALLEL.md: commit each record in the order
// given (device order for bulk-sync rounds, seeded arrival order for
// deadline-paced ones), then aggregate the updates that made it and close the
// round with slot. Everything recorded here is part of the serial phase, so
// the ledgers (and their float accumulation order) are a pure function of
// the seeds.
func (s *Nebula) land(round int, p *roundPrep, landings []*deviceRound, slot float64) {
	var updates []*modular.Update
	for _, d := range landings {
		if stale := round - d.launch; stale > 0 {
			// Marker span: a carried straggler update lands this round.
			s.mark(p.trace, p.root, "fed.land", d.c.Dev.ID, round, "", stale)
		}
		if u := s.commitDevice(round, d); u != nil {
			updates = append(updates, u)
		}
	}
	s.aggregate(round, updates, slot)
	// Aggregation has read the updates; their wire reconstructions go back.
	for _, d := range landings {
		tensor.Release(d.upBuf)
	}
}

// adaptLocalOnly implements the w/o-cloud ablation: derive once, then only
// local training. Devices run concurrently with the same coordinator-prep /
// parallel / canonical-reduce structure as the full round, and the step is
// recorded as one: a round whose devices move no bytes beyond a first-time
// bootstrap.
func (s *Nebula) adaptLocalOnly(rng *tensor.RNG, clients []*Client) {
	round := s.costs.Rounds + 1
	s.record(trace.RoundStart(round, 0))
	s.streams = splitStreams(rng, s.streams, len(clients))
	ts := make([]float64, len(clients))
	subs, fresh := serve(s.cfg.Workers, clients, s.subs, s.deriveOwn(clients), func(i int, sub *modular.SubModel) {
		c := clients[i]
		TrainLayer(s.streams[i], sub, c.Dev.Train, s.cfg.FinetuneEpochs, s.cfg.LR, BatchSize, nil)
		_, fwd, _ := s.Model.SelectionCost(sub.Mapping)
		ts[i] = trainTime(c.Mon.Profile(), fwd, c.Dev.Train.Len(), s.cfg.FinetuneEpochs)
	})
	var slot float64
	for i, c := range clients {
		if fresh[i] {
			s.record(trace.Churn(round, c.Dev.ID, "bootstrap", s.adoptFresh(c.Dev.ID, subs[i])))
		}
		slot = max(slot, ts[i])
		s.record(trace.ClientUpdate(round, c.Dev.ID, subs[i].NumModules(), 0, 0, ts[i], 0))
	}
	s.record(trace.RoundEnd(round, slot))
}

// overlapRatio computes the Jaccard overlap between a held sub-model's
// module sets and a freshly derived selection.
func overlapRatio(held [][]int, active [][]int) float64 {
	inter, union := 0, 0
	for l := range held {
		set := map[int]bool{} // module -> held (false: only freshly selected)
		for _, i := range held[l] {
			set[i] = true
		}
		if l < len(active) {
			for _, i := range active[l] {
				if set[i] {
					inter++
				} else {
					set[i] = false
				}
			}
		}
		union += len(set)
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// blendSubModels blends the cloud's side into a local sub-model:
// local = (1−b)·local + b·cloud, for parameters and ALL layer states — stem,
// the selected modules, and head. Module states matter: they carry BatchNorm
// running statistics, and a refresh that pulls module weights but not their
// normalization stats would serve cloud weights under stale local
// normalization. params is local.Params(); cloud(k, n) is the cloud's side
// of local's k-th tensor, n elements long, counting params and then
// local.AllStates(); it is asked once per tensor, in that order, and only
// read.
func blendSubModels(local *modular.SubModel, params []*nn.Param, cloud func(k, n int) []float32, b float32) {
	k := 0
	for _, p := range params {
		blendInto(p.W.Data, cloud(k, p.W.Len()), b)
		k++
	}
	for _, st := range local.AllStates() {
		blendInto(st.Data, cloud(k, st.Len()), b)
		k++
	}
}

// inTensors is the cloud's side of blendSubModels read from tensors in place:
// params in local.Params() order, then states in local.AllStates() order.
func inTensors(params []*nn.Param, states []*tensor.Tensor) func(k, n int) []float32 {
	return func(k, _ int) []float32 {
		if k < len(params) {
			return params[k].W.Data
		}
		return states[k-len(params)].Data
	}
}

// blendInto sets dst = (1−b)·dst + b·src elementwise, each product rounded
// before the add (a platform that fuses them would round once).
func blendInto(dst, src []float32, b float32) {
	if len(dst) != len(src) {
		panic("fed: blend of tensors of different sizes")
	}
	keep := 1 - b
	for i, v := range src {
		dst[i] = float32(keep*dst[i]) + float32(b*v)
	}
}

// LocalAccuracy evaluates each device's current sub-model; devices that
// never participated derive one on the spot (a pure download, recorded as a
// bootstrap). Evaluation fans out across devices; derived-on-the-spot
// sub-models are adopted in canonical device order.
func (s *Nebula) LocalAccuracy(clients []*Client) float64 {
	if len(clients) == 0 {
		return 0
	}
	accs := make([]float64, len(clients))
	subs, fresh := serve(s.cfg.Workers, clients, s.subs, s.deriveOwn(clients), func(i int, sub *modular.SubModel) {
		accs[i] = EvalLayer(sub, clients[i].Dev.TestSet(s.cfg.TestPerDevice))
	})
	for i, c := range clients {
		if fresh[i] {
			s.record(trace.Churn(s.costs.Rounds, c.Dev.ID, "bootstrap", s.adoptFresh(c.Dev.ID, subs[i])))
		}
	}
	acc := mean(accs)
	s.metrics().lastAccuracy.Set(acc)
	return acc
}

// Costs returns accumulated accounting.
func (s *Nebula) Costs() Costs { return s.costs }

// SubModelOf returns the stored sub-model of a client (nil if none). Once a
// bout ran on it, it holds its weights and nothing else (TrainLayer and
// EvalLayer end their bouts with nn.ReleaseBuffers): it evaluates as it is
// and TrainLayer re-arms it.
func (s *Nebula) SubModelOf(id int) *modular.SubModel { return s.subs[id] }
