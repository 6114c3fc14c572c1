package fed

// Staleness-aware semi-async rounds (docs/ASYNC.md). The coordinator paces
// rounds by a sim-time deadline instead of waiting for the slowest device:
// updates that complete within the deadline aggregate immediately, stragglers
// carry their work across round boundaries and land later with a
// staleness-decayed weight, and the fleet may gain or lose devices between
// rounds. Everything is driven by the seeded sim clock — a device's
// completion time is its deterministic link+train+fault time from
// device.Profile and the fault pre-draws — never by wall time, so async runs
// replay bitwise and are independent of the worker count exactly like the
// bulk-synchronous path (docs/PARALLEL.md).

import (
	"sort"

	"repro/internal/modular"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// asyncPending is one straggler's carried work: launched in round launch,
// completing at absolute sim time done, with the worker's finished result
// (sub-model, update, traffic, span) waiting to be committed in the round
// whose deadline first covers done.
type asyncPending struct {
	c      *Client
	launch int
	done   float64
	res    nebulaResult
}

// asyncState is the semi-async coordinator state, persisted across rounds
// and across Adapt calls.
type asyncState struct {
	clock    float64         // absolute sim time at the current round boundary
	deadline float64         // per-round budget D (0 = not yet calibrated)
	busy     map[int]float64 // device ID -> absolute sim time it becomes free
	pending  []*asyncPending // carried work, (launch round, canonical index) order
	prev     []int           // sorted device IDs present last round
	seeded   bool            // baseline fleet captured (first round is never churn)
}

// asyncRound runs one deadline-paced round: apply fleet churn, sample idle
// devices, launch their work, land everything (carried and fresh) whose
// completion time falls inside the deadline in sim-clock arrival order, and
// advance the clock by exactly the deadline. The first round (when no
// explicit RoundDeadline is configured) runs bulk-synchronously to observe
// the device-time distribution and auto-calibrates the deadline from it.
func (s *Nebula) asyncRound(rng *tensor.RNG, clients []*Client) {
	if s.async == nil {
		s.async = &asyncState{busy: map[int]float64{}, deadline: s.cfg.RoundDeadline}
	}
	a := s.async
	round := s.costs.Rounds + 1
	m := s.metrics()
	s.record(trace.RoundStart(round, a.deadline))
	wall := obs.StartTimer()
	defer func() { m.noteRoundWall(wall.Seconds()) }()
	// Root span for the deadline-paced round; churn, pend, and land events
	// record as marker children so a trace shows the async control flow.
	tid, _ := s.Spans.Trace(int64(round))
	rs := s.Spans.Start(tid, 0, "fed.round")
	rs.SetRound(round)
	defer rs.End()

	s.applyChurn(round, clients, tid, rs.ID())

	// Sample only idle devices: a straggler still working on carried rounds
	// cannot be asked for new work. Eligibility is a pure function of the
	// seeded clock, so the draw sequence replays exactly.
	eligible := make([]*Client, 0, len(clients))
	for _, c := range clients {
		if a.busy[c.Dev.ID] > a.clock {
			continue
		}
		eligible = append(eligible, c)
	}
	part := sampleClients(rng, eligible, s.cfg.DevicesPerRound)

	swPrep := obs.StartTimer()
	p := s.prepRound(rng, part, round)
	p.trace, p.root = tid, rs.ID()
	m.phasePrep.ObserveSince(swPrep)

	swParallel := obs.StartTimer()
	res := s.runDevices(p, round)
	m.phaseParallel.ObserveSince(swParallel)

	start := a.clock
	if a.deadline == 0 {
		// Calibration round: bulk-sync semantics (everything lands, the slot
		// is the slowest participant), then derive the deadline from the
		// observed per-device times.
		slot, times := s.landAll(round, p, res)
		a.clock = start + slot
		a.deadline = calibrateDeadline(times)
		return
	}
	roundEnd := start + a.deadline

	// Landing set: carried stragglers whose work completes by this round's
	// deadline, then this round's fresh completions. Fresh work that overruns
	// the deadline pends instead, and its device stays busy (unsampleable)
	// until its seeded completion time.
	var landings []landing
	kept := a.pending[:0]
	for _, pw := range a.pending {
		if pw.done <= roundEnd {
			landings = append(landings, landing{pw.c, pw.launch, pw.done, &pw.res})
			delete(a.busy, pw.c.Dev.ID)
		} else {
			kept = append(kept, pw)
		}
	}
	a.pending = kept
	for i := range res {
		if p.drop[i] {
			continue
		}
		r := &res[i]
		done := start + r.t
		if done <= roundEnd {
			landings = append(landings, landing{part[i], round, done, r})
			continue
		}
		a.busy[part[i].Dev.ID] = done
		pw := &asyncPending{c: part[i], launch: round, done: done}
		pw.res = *r
		a.pending = append(a.pending, pw)
		// Marker span: this device's work overran the deadline and pends.
		pe := s.Spans.Start(tid, rs.ID(), "fed.pend")
		pe.SetDevice(part[i].Dev.ID)
		pe.SetRound(round)
		pe.End()
	}
	// Arrival order is the seeded sim clock: stable-sort by completion time,
	// with the (launch round, canonical index) insertion order breaking ties.
	sort.SliceStable(landings, func(i, j int) bool { return landings[i].done < landings[j].done })

	s.land(round, p, landings, a.deadline)
	a.clock = roundEnd
}

// applyChurn diffs the incoming fleet against last round's membership and
// commits the changes: departed devices free their busy slot and their
// carried work is discarded (the download traffic it already consumed is
// charged, so accounting still balances); joining devices get a freshly
// derived sub-model — a pure download — before their first round. The first
// async round only captures the baseline. All iteration is over slices in
// deterministic order (sorted previous IDs, canonical clients order); maps
// are membership tests only. tid/parent are the round's trace context; each
// membership change records a marker span under the round root.
func (s *Nebula) applyChurn(round int, clients []*Client, tid span.TraceID, parent span.SpanID) {
	a := s.async
	cur := make(map[int]bool, len(clients))
	for _, c := range clients {
		cur[c.Dev.ID] = true
	}
	if !a.seeded {
		a.seeded = true
		a.prev = presentIDs(clients)
		return
	}
	left := map[int]bool{}
	for _, id := range a.prev {
		if cur[id] {
			continue
		}
		left[id] = true
		delete(a.busy, id)
		s.record(trace.Churn(round, id, "leave", 0))
		ce := s.Spans.Start(tid, parent, "fed.churn")
		ce.SetDevice(id)
		ce.SetRound(round)
		ce.SetNote("leave")
		ce.End()
	}
	if len(left) > 0 {
		kept := a.pending[:0]
		for _, pw := range a.pending {
			id := pw.c.Dev.ID
			if !left[id] {
				kept = append(kept, pw)
				continue
			}
			// The straggler left before its update could land: the work is
			// dropped mid-round without ever blocking aggregation, but the
			// sub-model download it performed did cross the link.
			s.Trace.Flush(&pw.res.span)
			s.record(trace.Churn(round, id, "drop_pending", pw.res.down))
			// Nothing will read the dropped work's reconstructions: its
			// worker is done and it never lands.
			pw.res.wireRef.release()
			tensor.Release(pw.res.upBuf)
			ce := s.Spans.Start(tid, parent, "fed.churn")
			ce.SetDevice(id)
			ce.SetRound(round)
			ce.SetNote("drop_pending")
			ce.End()
		}
		a.pending = kept
	}
	prevSet := make(map[int]bool, len(a.prev))
	for _, id := range a.prev {
		prevSet[id] = true
	}
	var sel *modular.Selector // importance-probe copy, made for the first newcomer
	for _, c := range clients {
		id := c.Dev.ID
		if prevSet[id] {
			continue
		}
		var down int64 // a returning device still holds its sub-model
		if s.subs[id] == nil {
			// A brand-new device bootstraps before its first round with a
			// budget-fitting sub-model, shipped whole (selector included).
			if sel == nil {
				sel = s.Model.Selector.Clone()
			}
			sub := s.deriveFresh(sel, c)
			sub.Park()
			down = s.adoptFresh(id, sub)
		}
		s.record(trace.Churn(round, id, "join", down))
		ce := s.Spans.Start(tid, parent, "fed.churn")
		ce.SetDevice(id)
		ce.SetRound(round)
		ce.SetNote("join")
		ce.End()
	}
	a.prev = presentIDs(clients)
}

// presentIDs returns the fleet's device IDs in ascending order.
func presentIDs(clients []*Client) []int {
	ids := make([]int, len(clients))
	for i, c := range clients {
		ids[i] = c.Dev.ID
	}
	sort.Ints(ids)
	return ids
}

// calibrateDeadline turns the calibration round's per-device sim times into
// the per-round deadline: 2× the median, so a typical device finishes with
// slack while tail stragglers carry over. The lower median ((n−1)/2) keeps
// the deadline anchored to the fleet's healthy half even when stragglers
// make up half of a small round. Returns 0 (stay uncalibrated) on an empty
// or degenerate round.
func calibrateDeadline(times []float64) float64 {
	if len(times) == 0 {
		return 0
	}
	ts := append([]float64(nil), times...)
	sort.Float64s(ts)
	return 2 * ts[(len(ts)-1)/2]
}

// AsyncDeadline exposes the current per-round deadline (0 before
// calibration); experiments report it alongside latency comparisons.
func (s *Nebula) AsyncDeadline() float64 {
	if s.async == nil {
		return 0
	}
	return s.async.deadline
}

// PendingStragglers reports how many carried updates are currently in
// flight (test and experiment introspection).
func (s *Nebula) PendingStragglers() int {
	if s.async == nil {
		return 0
	}
	return len(s.async.pending)
}
