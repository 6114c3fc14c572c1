package fed

// Nebula's round engine (docs/ASYNC.md). The coordinator paces rounds by a
// sim-time deadline instead of waiting for the slowest device: updates that
// complete within the deadline aggregate immediately, stragglers carry their
// work across round boundaries and land later with a staleness-decayed
// weight, and the fleet may gain or lose devices between rounds. A deadline
// of 0 is the bulk-synchronous round, the default (cfg.Async off).
// Everything is driven by the seeded sim clock — a device's completion time
// is its deterministic link+train+fault time from device.Profile and the
// fault pre-draws — never by wall time, so runs replay bitwise and are
// independent of the worker count (docs/PARALLEL.md).

import (
	"sort"

	"repro/internal/modular"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// asyncState is the round engine's coordinator state, persisted across
// rounds and across Adapt calls.
type asyncState struct {
	clock    float64        // absolute sim time at the current round boundary
	deadline float64        // per-round budget D (0 = bulk-sync)
	pending  []*deviceRound // carried work, (launch round, canonical index) order
	prev     []int          // sorted device IDs present last round (nil before the first)
}

// pends reports whether device id has carried work in flight. At a round
// boundary every pending item completes after the clock, so this is the
// device's "still working" state.
func (a *asyncState) pends(id int) bool {
	for i := range a.pending {
		if a.pending[i].c.Dev.ID == id {
			return true
		}
	}
	return false
}

// round runs one online round paced by a sim-time deadline: apply fleet
// churn, sample idle devices, launch their work, land everything (carried and
// fresh) whose completion time falls inside the deadline in sim-clock arrival
// order, and advance the clock by exactly the deadline. A deadline of 0 is
// bulk-sync: every launched device lands, in device order, and the slot is
// the slowest participant. With cfg.Async off that is every round — churn is
// not applied and the deadline never calibrates; with it on and no explicit
// RoundDeadline, the first round is bulk-sync and calibrates the deadline
// from the device times it observed.
func (s *Nebula) round(rng *tensor.RNG, clients []*Client) {
	if s.async == nil {
		s.async = &asyncState{}
		if s.cfg.Async {
			s.async.deadline = s.cfg.RoundDeadline
		}
	}
	a := s.async
	round := s.costs.Rounds + 1
	m := s.metrics()
	s.record(trace.RoundStart(round, a.deadline))
	wall := obs.StartTimer()
	defer func() { m.noteRoundWall(wall.Seconds()) }()
	// Root span for the round, keyed on the round number so every worker
	// count and replay traces the same rounds; churn, pend, and land events
	// record as marker children so a trace shows the async control flow.
	tid, _ := s.Spans.Trace(int64(round))
	rs := s.Spans.Start(tid, 0, "fed.round")
	rs.SetRound(round)
	defer rs.End()

	if s.cfg.Async {
		s.applyChurn(round, clients, tid, rs.ID())
	}

	// Sample only idle devices: a straggler still working on carried rounds
	// cannot be asked for new work. Eligibility is a pure function of the
	// seeded pending set, so the draw sequence replays exactly.
	eligible := make([]*Client, 0, len(clients))
	for _, c := range clients {
		if !a.pends(c.Dev.ID) {
			eligible = append(eligible, c)
		}
	}
	part := sampleClients(rng, eligible, s.cfg.DevicesPerRound)

	swPrep := obs.StartTimer()
	p := s.prepRound(rng, part, round)
	p.trace, p.root = tid, rs.ID()
	m.phasePrep.ObserveSince(swPrep)

	swParallel := obs.StartTimer()
	s.runDevices(p, round)
	m.phaseParallel.ObserveSince(swParallel)

	start := a.clock
	if a.deadline == 0 {
		// Bulk-sync: everything lands, in device order, and the slot is the
		// slowest participant; an async run calibrates from these times.
		var slot float64
		landings := make([]*deviceRound, len(p.devs))
		times := make([]float64, len(p.devs))
		for i := range p.devs {
			landings[i] = &p.devs[i]
			slot = max(slot, p.devs[i].t)
			times[i] = p.devs[i].t
		}
		s.land(round, p, landings, slot)
		a.clock = start + slot
		if s.cfg.Async {
			a.deadline = calibrateDeadline(times)
		}
		return
	}
	roundEnd := start + a.deadline

	// Landing set: carried stragglers whose work completes by this round's
	// deadline, then this round's fresh completions. Fresh work that overruns
	// the deadline pends instead, and its device stays unsampleable until it
	// lands.
	var landings []*deviceRound
	kept := a.pending[:0]
	for _, d := range a.pending {
		if d.done <= roundEnd {
			landings = append(landings, d)
		} else {
			kept = append(kept, d)
		}
	}
	clear(a.pending[len(kept):]) // the array's tail must hold no landed record alive
	a.pending = kept
	for i := range p.devs {
		d := &p.devs[i]
		d.done = start + d.t
		if d.done <= roundEnd {
			landings = append(landings, d)
			continue
		}
		// The straggler pends as a copy of its own record, not a pointer into
		// this round's array, which would hold every device's update alive.
		pend := *d
		a.pending = append(a.pending, &pend)
		// Marker span: this device's work overran the deadline and pends.
		s.mark(tid, rs.ID(), "fed.pend", d.c.Dev.ID, round, "", 0)
	}
	// Arrival order is the seeded sim clock: stable-sort by completion time,
	// with the (launch round, canonical index) insertion order breaking ties.
	sort.SliceStable(landings, func(i, j int) bool { return landings[i].done < landings[j].done })

	s.land(round, p, landings, a.deadline)
	a.clock = roundEnd
}

// applyChurn diffs the incoming fleet against last round's membership and
// commits the changes: departed devices' carried work is discarded (the
// download traffic it already consumed is charged, so accounting still
// balances); joining devices get a freshly derived sub-model — a pure download — before their first round. The first
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
	if a.prev == nil {
		a.prev = presentIDs(clients)
		return
	}
	left := map[int]bool{}
	for _, id := range a.prev {
		if cur[id] {
			continue
		}
		left[id] = true
		s.record(trace.Churn(round, id, "leave", 0))
		s.mark(tid, parent, "fed.churn", id, round, "leave", 0)
	}
	if len(left) > 0 {
		kept := a.pending[:0]
		for _, d := range a.pending {
			id := d.c.Dev.ID
			if !left[id] {
				kept = append(kept, d)
				continue
			}
			// The straggler left before its update could land: the work is
			// dropped mid-round without ever blocking aggregation, but the
			// sub-model download it performed did cross the link.
			s.noteFaults(d)
			s.record(trace.Churn(round, id, "drop_pending", d.down))
			// Nothing will read the dropped work's reconstructions: its
			// worker is done and it never lands.
			d.next.Release()
			tensor.Release(d.upBuf)
			s.mark(tid, parent, "fed.churn", id, round, "drop_pending", 0)
		}
		clear(a.pending[len(kept):])
		a.pending = kept
	}
	prevSet := make(map[int]bool, len(a.prev))
	for _, id := range a.prev {
		prevSet[id] = true
	}
	var sel *modular.Selector // importance-probe copy, refreshed for the first newcomer
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
				sel = s.roundWorkers(1)[0].sel
			}
			down = s.adoptFresh(id, s.deriveFresh(sel, c))
		}
		s.record(trace.Churn(round, id, "join", down))
		s.mark(tid, parent, "fed.churn", id, round, "join", 0)
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

// AsyncDeadline exposes the current per-round deadline (0 = bulk-sync:
// before calibration, and always with cfg.Async off); experiments report it
// alongside latency comparisons.
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
