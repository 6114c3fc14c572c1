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
	// module pool cost: frac = clamp((effectiveFLOPS/flagshipFLOPS)^0.3,
	// MinFraction, MaxFraction). Runtime contention lowers effective FLOPS
	// and therefore shrinks the derived sub-model — the paper's
	// accuracy-latency tradeoff under inner runtime dynamics.
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
	// encoders are the simulated link's senders, one per worker of the
	// parallel phase, kept from round to round so their arrays stop growing.
	encoders []*edgenet.Encoder
	// streams are the last round's per-device RNG streams, re-seeded in place
	// by the next round's split (splitStreams).
	streams []*tensor.RNG

	// async holds the semi-async coordinator state (cfg.Async; docs/ASYNC.md),
	// lazily created on the first deadline-paced round and persisted across
	// Adapt calls so carried stragglers and the sim clock survive step
	// boundaries.
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
		MinFraction:        0.2,
		MaxFraction:        0.45,
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
	s.Model.TrainEndToEnd(rng, proxy, s.TrainCfg)
	if s.AbilityEnhancing {
		ae := s.TrainCfg
		ae.Epochs = (ae.Epochs + 1) / 2
		s.Model.AbilityEnhance(rng, proxy, ae)
	}
}

// deviceBudget turns a resource profile into the Eq. 2 budget vector: the
// fixed stem+head cost plus a capability fraction of the full module pool.
func (s *Nebula) deviceBudget(c *Client) modular.Budget {
	return s.Model.PoolBudget(s.capabilityFraction(c.Mon.Profile().ComputeFLOPS))
}

// capabilityFraction maps effective device compute (contention included) to
// the fraction of the module pool the device may hold.
func (s *Nebula) capabilityFraction(effectiveFLOPS float64) float64 {
	const (
		flagship = 1.2e12 // device.Catalogue top tier
		capExp   = 0.3    // sub-linear: a 10× slower device holds half the pool share
	)
	r := effectiveFLOPS / flagship
	if r <= 0 {
		return s.MinFraction
	}
	frac := 1.0
	if r < 1 {
		frac = math.Pow(r, capExp)
	}
	if frac < s.MinFraction {
		frac = s.MinFraction
	}
	if frac > s.MaxFraction {
		frac = s.MaxFraction
	}
	return frac
}

// importanceWith computes a device's module importance from (a sample of)
// its local data using only the lightweight selector. Callers pass their own
// selector copy (Selector.Clone; the round loop makes one per worker) because
// Forward mutates activation caches and importance probes run concurrently
// across devices.
func (s *Nebula) importanceWith(sel *modular.Selector, c *Client) [][]float64 {
	ds := c.Dev.Train
	n := ds.Len()
	if n > 64 {
		n = 64
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	x, _ := ds.BatchInto(nil, nil, idx)
	defer tensor.Release(x)
	return s.Model.ImportanceWith(sel, x)
}

// deriveFresh builds the sub-model of a device the cloud has not served yet:
// probe importance on its local data, solve Eq. 2 under its current budget,
// extract. It only reads the cloud model, so workers may call it; sel is the
// caller's own selector copy (see importanceWith).
func (s *Nebula) deriveFresh(sel *modular.Selector, c *Client) *modular.SubModel {
	imp := s.importanceWith(sel, c)
	return s.Model.Extract(s.Model.Derive(imp, s.deviceBudget(c), s.ExactDerive))
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
		s.Round(rng, clients)
	}
}

// Round runs one online round.
func (s *Nebula) Round(rng *tensor.RNG, clients []*Client) {
	if s.cfg.Async {
		s.asyncRound(rng, clients)
		return
	}
	s.round(rng, clients)
}

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
// the same body serves both the sync path (commit in the launch round) and
// the async path (commit in the landing round).
func (s *Nebula) runDevices(p *roundPrep, round int) []nebulaResult {
	res := make([]nebulaResult, len(p.part))
	for len(s.encoders) < poolSize(s.cfg.Workers, len(p.part)) {
		s.encoders = append(s.encoders, new(edgenet.Encoder))
	}
	type worker struct {
		sel *modular.Selector
		enc *edgenet.Encoder
	}
	newWorker := func(w int) any { return worker{s.Model.Selector.Clone(), s.encoders[w]} }
	forEachDeviceState(s.cfg.Workers, len(p.part), newWorker, func(st any, i int) {
		if p.drop[i] {
			return
		}
		wk := st.(worker)
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
		var sub *modular.SubModel
		var bytes int64
		fspan := s.Spans.Start(p.trace, dspan.ID(), "fed.fetch")
		fspan.SetDevice(id)
		imp := s.importanceWith(wk.sel, c)
		if p.fetchOK[i] {
			active := s.Model.Derive(imp, s.deviceBudget(c), s.ExactDerive)
			if p.held[i] != nil && overlapRatio(p.held[i].Mapping, active) >= s.RederiveOverlap {
				// Keep the personalized sub-model; pull the cloud's current
				// parameters for the held modules and blend them in. Under
				// WireCompress the pull crosses the simulated v2 link first,
				// so the device blends in the lossy reconstruction.
				sub = p.held[i]
				bytes, r.wireRef = s.pullBlend(wk.enc, sub, p.wireRef[i])
			} else {
				// First contact or the local task moved: new structure,
				// exact at 4 B/element or over the simulated v2 link — dense:
				// a fresh structure has no base to be sparse against.
				sub = s.Model.Extract(active)
				bytes = sub.BackboneBytes()
				if s.cfg.WireCompress {
					bytes, r.wireRef = wireDownlink(wk.enc, sub, p.wireRef[i], edgenet.WireOpts{})
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
		}
		fspan.SetBytes(bytes)
		fspan.End()
		prof := c.Mon.Profile()
		t := prof.TransferTime(bytes) + p.fetchExtra[i]
		if s.LocalTraining {
			tspan := s.Spans.Start(p.trace, dspan.ID(), "fed.train")
			tspan.SetDevice(id)
			TrainLayer(p.streams[i], sub, c.Dev.Train, s.cfg.LocalEpochs, s.cfg.LR, BatchSize, nil)
			tspan.End()
			upBytes := int64(nn.ParamCount(sub.Params())) * 4 // modules+stem+head; selector is not updated on edge
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
					upBytes, upSub, r.upBuf = wireUplink(wk.enc, sub, ref, edgenet.WireOpts{TopK: s.cfg.WireTopK})
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

func (s *Nebula) round(rng *tensor.RNG, clients []*Client) {
	part := sampleClients(rng, clients, s.cfg.DevicesPerRound)
	round := s.costs.Rounds + 1
	s.record(trace.RoundStart(round, 0))
	m := s.metrics()
	wall := obs.StartTimer()
	defer func() { m.noteRoundWall(wall.Seconds()) }()
	// Root span for the round; the sampling decision is keyed on the round
	// number, so every worker count and replay traces the same rounds.
	tid, _ := s.Spans.Trace(int64(round))
	rs := s.Spans.Start(tid, 0, "fed.round")
	rs.SetRound(round)
	defer rs.End()

	swPrep := obs.StartTimer()
	p := s.prepRound(rng, part, round)
	p.trace, p.root = tid, rs.ID()
	m.phasePrep.ObserveSince(swPrep)

	swParallel := obs.StartTimer()
	res := s.runDevices(p, round)
	m.phaseParallel.ObserveSince(swParallel)

	s.landAll(round, p, res)
}

// landing is one finished device result on its way into strategy state:
// launched in round launch (the landing round itself for on-time and
// bulk-sync work), complete at absolute sim time done.
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
			le := s.Spans.Start(p.trace, p.root, "fed.land")
			le.SetDevice(ld.c.Dev.ID)
			le.SetRound(round)
			le.SetAttempt(stale)
			le.End()
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

// landAll is the bulk-synchronous landing: every launched device lands this
// round, in device order, and the slot is the slowest participant's time.
// Returns that slot and the per-device times it was taken over.
func (s *Nebula) landAll(round int, p *roundPrep, res []nebulaResult) (slot float64, times []float64) {
	var landings []landing
	for i := range res {
		if p.drop[i] {
			continue
		}
		r := &res[i]
		if r.t > slot {
			slot = r.t
		}
		times = append(times, r.t)
		landings = append(landings, landing{c: p.part[i], launch: round, res: r})
	}
	s.land(round, p, landings, slot)
	return slot, times
}

// adaptLocalOnly implements the w/o-cloud ablation: derive once, then only
// local training. Devices run concurrently with the same coordinator-prep /
// parallel / canonical-reduce structure as the full round, and the step is
// recorded as one: a round whose devices move no bytes beyond a first-time
// bootstrap.
func (s *Nebula) adaptLocalOnly(rng *tensor.RNG, clients []*Client) {
	n := len(clients)
	round := s.costs.Rounds + 1
	s.record(trace.RoundStart(round, 0))
	held := s.heldBy(clients)
	s.streams = splitStreams(rng, s.streams, n)
	type result struct {
		sub *modular.SubModel
		t   float64
	}
	res := make([]result, n)
	forEachDevice(s.cfg.Workers, n, func(i int) {
		c := clients[i]
		sub := held[i]
		if sub == nil {
			sub = s.deriveFresh(s.Model.Selector.Clone(), c)
		}
		TrainLayer(s.streams[i], sub, c.Dev.Train, s.cfg.FinetuneEpochs, s.cfg.LR, BatchSize, nil)
		sub.Park()
		_, fwd, _ := s.Model.SelectionCost(sub.Mapping)
		res[i].sub = sub
		res[i].t = trainTime(c.Mon.Profile(), fwd, c.Dev.Train.Len(), s.cfg.FinetuneEpochs)
	})
	var slot float64
	for i, c := range clients {
		r := &res[i]
		if held[i] == nil {
			s.record(trace.Churn(round, c.Dev.ID, "bootstrap", s.adoptFresh(c.Dev.ID, r.sub)))
		}
		if r.t > slot {
			slot = r.t
		}
		s.record(trace.ClientUpdate(round, c.Dev.ID, r.sub.NumModules(), 0, 0, r.t, 0))
	}
	s.record(trace.RoundEnd(round, slot))
}

// heldBy snapshots each client's stored sub-model (nil = never served), in
// canonical order, for workers to read.
func (s *Nebula) heldBy(clients []*Client) []*modular.SubModel {
	held := make([]*modular.SubModel, len(clients))
	for i, c := range clients {
		held[i] = s.subs[c.Dev.ID]
	}
	return held
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

// blendSubModels blends cloud parameters into a local sub-model:
// local = (1−b)·local + b·cloud, for parameters and ALL layer states —
// stem, the selected modules, and head. Module states matter: they carry
// BatchNorm running statistics, and a refresh that pulls module weights but
// not their normalization stats would serve cloud weights under stale local
// normalization. The cloud's side comes as tensors in local.Params() and
// local.AllStates() order, and is only read.
func blendSubModels(local *modular.SubModel, params []*nn.Param, states []*tensor.Tensor, b float32) {
	for i, p := range local.Params() {
		p.W.Scale(1 - b)
		p.W.AddScaled(b, params[i].W)
	}
	for i, st := range local.AllStates() {
		st.Scale(1 - b)
		st.AddScaled(b, states[i])
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
	n := len(clients)
	held := s.heldBy(clients)
	type result struct {
		sub *modular.SubModel
		acc float64
	}
	res := make([]result, n)
	forEachDevice(s.cfg.Workers, n, func(i int) {
		c := clients[i]
		sub := held[i]
		if sub == nil {
			sub = s.deriveFresh(s.Model.Selector.Clone(), c)
		}
		res[i].sub = sub
		res[i].acc = EvalLayer(sub, c.Dev.TestSet(s.cfg.TestPerDevice))
		sub.Park() // the evaluation batch's activations go; the model stays
	})
	var sum float64
	for i, c := range clients {
		if held[i] == nil {
			s.record(trace.Churn(s.costs.Rounds, c.Dev.ID, "bootstrap", s.adoptFresh(c.Dev.ID, res[i].sub)))
		}
		sum += res[i].acc
	}
	acc := sum / float64(len(clients))
	s.metrics().lastAccuracy.Set(acc)
	return acc
}

// Costs returns accumulated accounting.
func (s *Nebula) Costs() Costs { return s.costs }

// SubModelOf returns the stored sub-model of a client (nil if none). Stored
// sub-models are parked (modular.SubModel.Park): they evaluate as they are
// and TrainLayer re-arms them.
func (s *Nebula) SubModelOf(id int) *modular.SubModel { return s.subs[id] }
