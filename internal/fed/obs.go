package fed

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/edgenet"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/trace"
)

// Telemetry for the federated round engine (docs/OBSERVABILITY.md).
//
// Two classes of metrics live here, with different determinism guarantees:
//
//   - Deterministic accounting (rounds, traffic bytes, simulated seconds,
//     round-slot and per-device sim-time histograms, late updates, churn).
//     These have one writer, RoundMetrics.apply, which moves them by one
//     trace.Event: the strategy's serial coordinator hands every accounting
//     fact to Nebula.record, which emits the event and applies it here and to
//     Costs. Their values are a pure function of the seeds — equal across
//     worker counts and replays — and equal to what the JSONL log folds to,
//     because Replay and trace.Summarize run the same steps over the same
//     events. The fault outcomes mirror FaultStats, once per round.
//
//   - Wall-clock operational metrics (phase timings, round latencies).
//     These vary run to run by nature. They are fed exclusively through
//     obs.Stopwatch, never written into Costs or the trace, and nothing in
//     the round logic reads them back — the artifact-neutrality contract.
//
// RoundMetrics can be bound to any registry; the package default binds to
// obs.Default(). ReplayTrace rebuilds the deterministic families from a JSONL
// trace into a fresh registry, which is what `nebula-trace -metrics` prints —
// so offline traces and live /metrics endpoints are directly comparable.

// RoundMetrics holds the fed layer's instrument handles on one registry.
type RoundMetrics struct {
	rounds     *obs.Counter
	simSeconds *obs.Counter
	bytesDown  *obs.Counter
	bytesUp    *obs.Counter

	aggregations *obs.Counter
	updates      *obs.Counter

	currentRound *obs.Gauge
	participants *obs.Gauge
	lastAccuracy *obs.Gauge

	roundSlotSeconds *obs.Histogram
	deviceSimSeconds *obs.Histogram

	// Semi-async round engine accounting (docs/ASYNC.md). Deterministic:
	// moved by apply from the events' stale/deadline/churn fields.
	lateUpdates   *obs.Counter
	staleRounds   *obs.Counter
	roundDeadline *obs.Gauge
	churnEvents   map[string]*obs.Counter

	// Wall-clock phase timings (nondeterministic by nature).
	phasePrep      *obs.Histogram
	phaseParallel  *obs.Histogram
	phaseAggregate *obs.Histogram

	// Fault-model outcome mirrors (FaultStats stays authoritative), moved by
	// mirrorFaults after each round's fault rolls.
	faultEvents map[string]*obs.Counter

	// wirePayloads counts downlinks that crossed the compressed simulated
	// wire (cfg.WireCompress; internal/fed/wire.go). Deterministic: bumped
	// only in commitDevice. Not mirrored by Replay — the trace carries the
	// resulting byte charges, not the encoding that produced them; the
	// per-encoding detail lives in the edgenet server metrics.
	wirePayloads *obs.Counter

	// Last-N wall-clock round latencies for the /statusz round-health
	// section (write-only operational telemetry, like the phase timings).
	wallMu    sync.Mutex
	wallRing  [roundWallN]float64
	wallNext  int
	wallCount int
}

// roundWallN is how many recent round wall latencies /statusz shows.
const roundWallN = 8

// noteRoundWall records one round's wall-clock latency into the last-N ring.
func (m *RoundMetrics) noteRoundWall(sec float64) {
	m.wallMu.Lock()
	m.wallRing[m.wallNext] = sec
	m.wallNext = (m.wallNext + 1) % roundWallN
	if m.wallCount < roundWallN {
		m.wallCount++
	}
	m.wallMu.Unlock()
}

// lastRoundWalls returns the recorded latencies, oldest first.
func (m *RoundMetrics) lastRoundWalls() []float64 {
	m.wallMu.Lock()
	defer m.wallMu.Unlock()
	out := make([]float64, 0, m.wallCount)
	start := 0
	if m.wallCount == roundWallN {
		start = m.wallNext
	}
	for i := 0; i < m.wallCount; i++ {
		out = append(out, m.wallRing[(start+i)%roundWallN])
	}
	return out
}

// RoundHealthSection renders the /statusz round-health digest: the last-N
// round wall latencies, the late-update and wire-fallback counts, and the
// span flight recorder's occupancy and drop count (rec may be nil). One
// glance answers "is the fleet stalled" without scraping /metrics.
func RoundHealthSection(rec *span.Recorder) func(io.Writer) {
	m := fedMetrics
	return func(w io.Writer) {
		walls := m.lastRoundWalls()
		fmt.Fprintf(w, "last %d round wall latencies:", len(walls))
		if len(walls) == 0 {
			fmt.Fprintf(w, " (no rounds yet)")
		}
		for _, s := range walls {
			fmt.Fprintf(w, " %.3fs", s)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "late updates: %d (total staleness %d rounds)\n",
			int64(m.lateUpdates.Value()), int64(m.staleRounds.Value()))
		fmt.Fprintf(w, "wire fallbacks (client NeedFull resends): %d\n", edgenet.ClientWireFallbacks())
		fmt.Fprintf(w, "span flight recorder: %d spans held, %d evicted\n", rec.Len(), rec.Dropped())
	}
}

// simSlotBuckets cover simulated round/device durations: 50 ms … ~27 min.
var simSlotBuckets = obs.ExpBuckets(0.05, 2, 15)

// NewRoundMetrics binds fed-layer handles to a registry.
func NewRoundMetrics(r *obs.Registry) *RoundMetrics {
	r.Help("nebula_fed_rounds_total", "Completed adaptation rounds.")
	r.Help("nebula_fed_sim_seconds_total", "Accumulated simulated time (sum of round slots).")
	r.Help("nebula_fed_traffic_bytes_total", "Simulated edge-cloud traffic, by direction.")
	r.Help("nebula_fed_aggregations_total", "Module-wise aggregations performed.")
	r.Help("nebula_fed_updates_aggregated_total", "Device updates folded into aggregations.")
	r.Help("nebula_fed_current_round", "Round currently executing (or last executed).")
	r.Help("nebula_fed_participants", "Devices participating in the current round after dropout.")
	r.Help("nebula_fed_last_accuracy", "Most recent evaluated mean local accuracy.")
	r.Help("nebula_fed_round_slot_seconds", "Simulated duration of each round (slowest participant).")
	r.Help("nebula_fed_device_sim_seconds", "Simulated per-device round time (link + train + faults).")
	r.Help("nebula_fed_phase_wall_seconds", "Wall-clock time per round phase (operational, nondeterministic).")
	r.Help("nebula_fed_fault_events_total", "Simulated link fault outcomes, mirroring FaultStats.")
	r.Help("nebula_fed_late_updates_total", "Straggler updates that landed after their launch round (async mode).")
	r.Help("nebula_fed_stale_rounds_total", "Total staleness (landing minus launch rounds) across late updates.")
	r.Help("nebula_fed_round_deadline_seconds", "Current per-round sim-time deadline (async mode; 0 = bulk-sync).")
	r.Help("nebula_fed_churn_events_total", "Fleet membership changes, by event (async mode).")
	r.Help("nebula_fed_wire_payloads_total", "Downlinks encoded through the simulated v2 wire codec (WireCompress).")
	m := &RoundMetrics{
		rounds:           r.Counter("nebula_fed_rounds_total"),
		simSeconds:       r.Counter("nebula_fed_sim_seconds_total"),
		bytesDown:        r.Counter("nebula_fed_traffic_bytes_total", "dir", "down"),
		bytesUp:          r.Counter("nebula_fed_traffic_bytes_total", "dir", "up"),
		aggregations:     r.Counter("nebula_fed_aggregations_total"),
		updates:          r.Counter("nebula_fed_updates_aggregated_total"),
		currentRound:     r.Gauge("nebula_fed_current_round"),
		participants:     r.Gauge("nebula_fed_participants"),
		lastAccuracy:     r.Gauge("nebula_fed_last_accuracy"),
		roundSlotSeconds: r.Histogram("nebula_fed_round_slot_seconds", simSlotBuckets),
		deviceSimSeconds: r.Histogram("nebula_fed_device_sim_seconds", simSlotBuckets),
		phasePrep:        r.Histogram("nebula_fed_phase_wall_seconds", obs.DefBuckets, "phase", "prep"),
		phaseParallel:    r.Histogram("nebula_fed_phase_wall_seconds", obs.DefBuckets, "phase", "parallel"),
		phaseAggregate:   r.Histogram("nebula_fed_phase_wall_seconds", obs.DefBuckets, "phase", "aggregate"),
		lateUpdates:      r.Counter("nebula_fed_late_updates_total"),
		staleRounds:      r.Counter("nebula_fed_stale_rounds_total"),
		roundDeadline:    r.Gauge("nebula_fed_round_deadline_seconds"),
		churnEvents:      map[string]*obs.Counter{},
		faultEvents:      map[string]*obs.Counter{},
		wirePayloads:     r.Counter("nebula_fed_wire_payloads_total"),
	}
	for _, o := range (FaultStats{}).outcomes() {
		m.faultEvents[o.event] = r.Counter("nebula_fed_fault_events_total", "event", o.event)
	}
	for _, ev := range []string{"join", "leave", "drop_pending"} {
		m.churnEvents[ev] = r.Counter("nebula_fed_churn_events_total", "event", ev)
	}
	return m
}

// fedMetrics is the package default, bound to the process registry.
var fedMetrics = NewRoundMetrics(obs.Default())

// metrics returns the strategy's registry binding: the explicit one when
// set (private registries in tests, replay tooling), else the package
// default.
func (s *Nebula) metrics() *RoundMetrics {
	if s.Metrics != nil {
		return s.Metrics
	}
	return fedMetrics
}

// apply moves the deterministic families by one accounting event. It is the
// only writer of those families: the live strategy calls it from
// Nebula.record for every event it emits, Replay calls it for every event of
// a log — which is why a replayed registry and the live one cannot differ.
func (m *RoundMetrics) apply(e trace.Event) {
	switch e.Kind {
	case trace.KindRoundStart:
		m.rounds.Inc()
		m.currentRound.Set(float64(e.Round))
		m.roundDeadline.Set(e.Deadline)
		m.participants.Set(0)
	case trace.KindClientUpdate:
		m.participants.Add(1)
		m.bytesUp.Add(float64(e.BytesUp))
		m.bytesDown.Add(float64(e.BytesDn))
		m.deviceSimSeconds.Observe(e.SimTime)
		if e.Stale > 0 {
			m.lateUpdates.Inc()
			m.staleRounds.Add(float64(e.Stale))
		}
	case trace.KindChurn:
		if c, ok := m.churnEvents[e.Note]; ok {
			c.Inc()
		}
		m.bytesUp.Add(float64(e.BytesUp))
		m.bytesDown.Add(float64(e.BytesDn))
	case trace.KindAggregate:
		m.aggregations.Inc()
		m.updates.Add(float64(e.Modules))
	case trace.KindRoundEnd:
		m.simSeconds.Add(e.SimTime)
		m.roundSlotSeconds.Observe(e.SimTime)
	}
}

// Replay folds a trace log into the deterministic families.
func (m *RoundMetrics) Replay(events []trace.Event) {
	for _, e := range trace.CloseRounds(events) {
		m.apply(e)
	}
}

// ReplayTrace renders a JSONL trace as a fresh registry holding the fed
// layer's deterministic metrics — the engine behind `nebula-trace -metrics`.
func ReplayTrace(events []trace.Event) *obs.Registry {
	r := obs.NewRegistry()
	NewRoundMetrics(r).Replay(events)
	return r
}

// mirrorFaults adds the link outcomes tallied between two readings of the
// strategy's FaultStats. Fault rolls happen in the serial prep phase, so the
// mirror is as deterministic as the stats.
func (m *RoundMetrics) mirrorFaults(from, to FaultStats) {
	before := from.outcomes()
	for i, o := range to.outcomes() {
		if d := o.n - before[i].n; d != 0 {
			m.faultEvents[o.event].Add(float64(d))
		}
	}
}
