package fed

import (
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

	subs       map[int]*modular.SubModel
	hasGatePkg map[int]bool // devices that already hold the selector
	// wireRefs holds the per-device delta-coding reference for the simulated
	// v2 link (cfg.WireCompress; internal/fed/wire.go): the reconstruction of
	// the device's last downlink, shared by both ends of the in-process
	// "wire". Snapshotted in prepRound, written back in commitDevice.
	wireRefs map[int]*wireRef
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
	tc.Epochs = 2 * PretrainEpochs
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
		hasGatePkg:         map[int]bool{},
		wireRefs:           map[int]*wireRef{},
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
	s.hasGatePkg[id] = true
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

// nebulaResult is one device's round outcome, filled by a worker and folded
// into strategy state by the coordinator in canonical device order.
type nebulaResult struct {
	sub    *modular.SubModel
	update *modular.Update
	down   int64
	up     int64
	t      float64 // slot candidate (link + train + fault time)
	gate   bool    // selector package transferred this round
	// wireRef is the device's new delta-coding reference when the round's
	// downlink ran through the compressed wire (nil otherwise).
	wireRef *wireRef
	// upBuf is the arena array under update's weights on the compressed wire.
	upBuf *tensor.Tensor
	span  trace.Span
}

// roundPrep is the serial coordinator-prep output for one round's launch set:
// every master-stream draw (dropout rolls, fault pre-draws, stream splits)
// and every shared-state read (held sub-models, selector ownership), all in
// canonical device order, captured before any worker starts.
type roundPrep struct {
	part       []*Client
	drop       []bool
	held       []*modular.SubModel
	hadGate    []bool
	fetchOK    []bool
	fetchExtra []float64
	pushOK     []bool
	pushExtra  []float64
	wireRef    []*wireRef
	streams    []*tensor.RNG
	// Distributed-trace context for this round's launch set: the sampled
	// trace (0 = round unsampled) and the round root span workers parent
	// their device spans under. Decided serially in the coordinator, read
	// freely by workers.
	trace span.TraceID
	root  span.SpanID
}

// prepRound runs the serial coordinator-prep phase over the sampled devices.
// Fault rolls are keyed hashes, but their stat counters mutate, so they are
// pre-drawn here too.
func (s *Nebula) prepRound(rng *tensor.RNG, part []*Client, round int) *roundPrep {
	n := len(part)
	p := &roundPrep{
		part:       part,
		drop:       make([]bool, n),
		held:       make([]*modular.SubModel, n),
		hadGate:    make([]bool, n),
		fetchOK:    make([]bool, n),
		fetchExtra: make([]float64, n),
		pushOK:     make([]bool, n),
		pushExtra:  make([]float64, n),
		wireRef:    make([]*wireRef, n),
	}
	faultsBefore := s.Faults.Stats()
	for i, c := range part {
		if s.cfg.DropoutProb > 0 {
			p.drop[i] = rng.Float64() < s.cfg.DropoutProb
		}
		if p.drop[i] {
			continue // device dropped out of this round
		}
		id := c.Dev.ID
		p.held[i] = s.subs[id]
		p.hadGate[i] = s.hasGatePkg[id]
		p.wireRef[i] = s.wireRefs[id] // refs are immutable; workers read freely
		p.fetchOK[i], p.fetchExtra[i] = s.Faults.Fetch(round, id)
		switch {
		case p.fetchOK[i]:
		case p.held[i] != nil:
			s.Faults.NoteFallback()
		default:
			s.Faults.NoteSkip()
		}
		if s.LocalTraining && (p.fetchOK[i] || p.held[i] != nil) {
			p.pushOK[i], p.pushExtra[i] = s.Faults.Push(round, id)
		}
	}
	s.metrics().mirrorFaults(faultsBefore, s.Faults.Stats())
	s.streams = splitStreams(rng, s.streams, n)
	p.streams = s.streams
	return p
}

// runDevices is the parallel phase: each device works against its own
// derived stream, sub-model, selector copy, and result slot. round is the
// launch round (used only for span annotations). Workers never emit the
// client_update record themselves — the coordinator does, at commit time, so
// the same body serves work that lands in its launch round and a straggler's
// that lands later.
func (s *Nebula) runDevices(p *roundPrep, round int) []nebulaResult {
	res := make([]nebulaResult, len(p.part))
	workers := s.roundWorkers(tensor.WorkerCount(s.cfg.Workers, len(p.part)))
	tensor.ParallelForWorkers(s.cfg.Workers, len(p.part), func(w, i int) {
		if p.drop[i] {
			return
		}
		wk := workers[w]
		c := p.part[i]
		id := c.Dev.ID
		r := &res[i]
		// Per-device wall-clock span under the round root. Recording is
		// write-only and the trace/parent came from the serial prep, so the
		// parallel fan-out stays artifact-deterministic.
		dspan := s.Spans.Start(p.trace, p.root, "fed.device")
		dspan.SetDevice(id)
		dspan.SetRound(round)
		defer dspan.End()
		if !p.fetchOK[i] && p.held[i] == nil {
			// No cache to fall back on: sit the round out. The wasted link
			// time still bounds the slot (the device was trying).
			r.span.Notef("round %d device %d: fetch lost, no cached sub-model, skipping round", round, id)
			dspan.SetNote("fetch_lost_skip")
			r.t = p.fetchExtra[i]
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
		if p.fetchOK[i] {
			active := s.Model.Derive(imp, s.deviceBudget(c), s.ExactDerive)
			if p.held[i] != nil && overlapRatio(p.held[i].Mapping, active) >= s.RederiveOverlap {
				// Keep the personalized sub-model; pull the cloud's current
				// parameters for the held modules and blend them in. Under
				// WireCompress the pull crosses the simulated v2 link first,
				// so the device blends in the lossy reconstruction.
				sub = p.held[i]
				bb = sub.Backbone()
				bytes, r.wireRef = s.pullBlend(wk.enc, sub, bb, p.wireRef[i])
			} else {
				// First contact or the local task moved: new structure,
				// exact at 4 B/element or over the simulated v2 link — dense:
				// a fresh structure has no base to be sparse against.
				sub = s.Model.Extract(active)
				bb = sub.Backbone()
				bytes = bb.Bytes()
				if s.cfg.WireCompress {
					bytes, r.wireRef = wireDownlink(wk.enc, sub, bb, p.wireRef[i], edgenet.WireOpts{})
				}
			}
			if !p.hadGate[i] {
				bytes += sub.SelectorBytes()
				r.gate = true
			}
		} else {
			// Download lost after retries: degrade to the cached sub-model —
			// train it on fresh local data without this round's cloud pull.
			r.span.Notef("round %d device %d: fetch lost, serving cached sub-model", round, id)
			fspan.SetNote("fetch_lost_cached")
			sub = p.held[i]
			bb = sub.Backbone()
		}
		fspan.SetBytes(bytes)
		fspan.End()
		prof := c.Mon.Profile()
		t := prof.TransferTime(bytes) + p.fetchExtra[i]
		if s.LocalTraining {
			tspan := s.Spans.Start(p.trace, dspan.ID(), "fed.train")
			tspan.SetDevice(id)
			trainParams(p.streams[i], sub, bb.Params, c.Dev.Train, s.cfg.LocalEpochs, s.cfg.LR, BatchSize, nil)
			tspan.End()
			upBytes := int64(nn.ParamCount(bb.Params)) * 4 // modules+stem+head; selector is not updated on edge
			_, fwd, _ := s.Model.SelectionCost(sub.Mapping)
			t += trainTime(prof, fwd, c.Dev.Train.Len(), s.cfg.LocalEpochs)
			t += p.pushExtra[i]
			if p.pushOK[i] {
				pspan := s.Spans.Start(p.trace, dspan.ID(), "fed.push")
				pspan.SetDevice(id)
				hist := c.Dev.Train.ClassHistogram()
				cw := make([]float64, len(hist))
				for ci, cnt := range hist {
					cw[ci] = float64(cnt)
				}
				upSub := sub
				if s.cfg.WireCompress {
					// Push crosses the simulated v2 link: delta + top-k
					// against this round's downlink reconstruction (or the
					// last one, when the fetch was lost). The cloud
					// aggregates the wire's reconstruction; the device keeps
					// its full-precision local weights.
					ref := r.wireRef
					if ref == nil {
						ref = p.wireRef[i]
					}
					upBytes, upSub, r.upBuf = wireUplink(wk.enc, sub, bb, ref, edgenet.WireOpts{TopK: s.cfg.WireTopK})
				}
				r.update = &modular.Update{Sub: upSub, Importance: imp, Weight: float64(c.Dev.Train.Len()), ClassWeights: cw}
				t += prof.TransferTime(upBytes)
				r.up = upBytes
				pspan.SetBytes(upBytes)
				pspan.End()
			} else {
				// Upload lost after retries: the local training still
				// happened (and improved the cached sub-model), but this
				// round aggregates without the device.
				r.span.Notef("round %d device %d: push lost, round aggregates without it", round, id)
			}
		}
		// The device goes back to the pool (or pends) as the model alone; its
		// training scratch is dead weight until it is sampled again.
		sub.Park()
		r.sub, r.down, r.t = sub, bytes, t
	})
	return res
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

// commitDevice folds one device's finished result into strategy state: trace
// span flush, the client_update record, and strategy-map writes. It runs only
// on the serial coordinator, in the round the result lands in. stale is
// landing−launch in rounds (0 for on-time / bulk-sync); a stale update's
// aggregation weight decays by StalenessDecay^stale. Returns the device's update for the aggregation list
// (nil if the device sat out or its push was lost).
func (s *Nebula) commitDevice(landing int, c *Client, r *nebulaResult, stale int) *modular.Update {
	s.Trace.Flush(&r.span)
	if r.sub == nil {
		return nil // sat the round out; the span note above is its only record
	}
	id := c.Dev.ID
	s.record(trace.ClientUpdate(landing, id, r.sub.NumModules(), r.down, r.up, r.t, stale))
	s.subs[id] = r.sub
	if r.gate {
		s.hasGatePkg[id] = true
	}
	if r.wireRef != nil {
		// The replaced reference goes back: its one reader, this device's
		// worker, is done, and a device is not relaunched while its work pends.
		s.wireRefs[id].release()
		s.wireRefs[id] = r.wireRef
		s.metrics().wirePayloads.Inc()
	}
	if r.update != nil && stale > 0 {
		r.update.Weight *= math.Pow(s.stalenessDecay(), float64(stale))
	}
	return r.update
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

// landing is one finished device result on its way into strategy state:
// launched in round launch (the landing round itself for on-time and
// bulk-sync work), complete at absolute sim time done. A straggler's landing
// waits in asyncState.pending with res pointing at a copy of its result.
type landing struct {
	c      *Client
	launch int
	done   float64
	res    *nebulaResult
}

// land is the one place a round's device work enters strategy state — the
// canonical reduce of docs/PARALLEL.md: commit each landing in the order
// given (device order for bulk-sync rounds, seeded arrival order for
// deadline-paced ones), then aggregate the updates that made it and close the
// round with slot. Everything recorded here is part of the serial phase, so
// the ledgers (and their float accumulation order) are a pure function of
// the seeds.
func (s *Nebula) land(round int, p *roundPrep, landings []landing, slot float64) {
	var updates []*modular.Update
	for _, ld := range landings {
		stale := round - ld.launch
		if stale > 0 {
			// Marker span: a carried straggler update lands this round.
			s.mark(p.trace, p.root, "fed.land", ld.c.Dev.ID, round, "", stale)
		}
		if u := s.commitDevice(round, ld.c, ld.res, stale); u != nil {
			updates = append(updates, u)
		}
	}
	s.aggregate(round, updates, slot)
	// Aggregation has read the updates; their wire reconstructions go back.
	for _, ld := range landings {
		tensor.Release(ld.res.upBuf)
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
		sub.Park()
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
		sub.Park() // the evaluation batch's activations go; the model stays
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

// SubModelOf returns the stored sub-model of a client (nil if none). Stored
// sub-models are parked (modular.SubModel.Park): they evaluate as they are
// and TrainLayer re-arms them.
func (s *Nebula) SubModelOf(id int) *modular.SubModel { return s.subs[id] }
