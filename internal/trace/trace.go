// Package trace provides structured JSON-lines event logging for the online
// adaptation pipeline: one event per round boundary, client update,
// aggregation and membership change. The events are the run's accounting
// facts — the live ledgers are folds of them — so a consumer replays a run's
// communication and timing from the log alone. A log carries sequence
// numbers and simulated time only, never the wall clock, so a seeded run
// writes the same bytes every time and at any worker count.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Kind enumerates event types.
type Kind string

// Event kinds emitted by the adaptation pipeline.
const (
	KindRoundStart   Kind = "round_start"
	KindClientUpdate Kind = "client_update"
	KindAggregate    Kind = "aggregate"
	KindRoundEnd     Kind = "round_end"
	KindNote         Kind = "note"
	// KindChurn records a fleet membership change or a transfer outside any
	// device's round; see Churn for the notes and what BytesDn carries.
	KindChurn Kind = "churn"
)

// Event is one structured log record. Fields are a superset across kinds;
// unused ones are omitted from the JSON.
type Event struct {
	Seq     int64   `json:"seq"`
	Kind    Kind    `json:"kind"`
	Round   int     `json:"round,omitempty"`
	Client  int     `json:"client,omitempty"`
	Modules int     `json:"modules,omitempty"`
	BytesUp int64   `json:"bytes_up,omitempty"`
	BytesDn int64   `json:"bytes_down,omitempty"`
	SimTime float64 `json:"sim_time,omitempty"`
	Note    string  `json:"note,omitempty"`
	// Stale is the number of rounds between an update's launch and its
	// landing (client_update in async mode; 0 = on time, omitted).
	Stale int `json:"stale,omitempty"`
	// Deadline is the round's sim-time budget in seconds (round_start in
	// async mode; 0 = bulk-synchronous, omitted).
	Deadline float64 `json:"deadline,omitempty"`
}

// Logger writes events as JSON lines. The zero value and a nil *Logger both
// discard events, so call sites never need nil checks.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	seq int64
	err error // first write/marshal failure, sticky
}

// New creates a logger writing to w. A nil w discards events. Events carry
// no wall-clock time, so a seeded run's log is byte-identical run to run.
func New(w io.Writer) *Logger {
	return &Logger{w: w}
}

// Emit writes one event, stamping its sequence number. The first failure —
// marshal or write — is recorded and every later Emit keeps writing (a
// transient failure should not silence the rest of the log), but Err() stays
// set so the run can fail loudly at the end.
func (l *Logger) Emit(e Event) {
	if l == nil || l.w == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq = l.seq
	data, err := json.Marshal(e)
	if err != nil {
		l.setErr(fmt.Errorf("trace: marshal event %d: %w", e.Seq, err))
		if _, werr := fmt.Fprintf(l.w, `{"kind":"note","note":"marshal error: %s"}`+"\n", err); werr != nil {
			l.setErr(fmt.Errorf("trace: write event %d: %w", e.Seq, werr))
		}
		return
	}
	if _, err := l.w.Write(append(data, '\n')); err != nil {
		l.setErr(fmt.Errorf("trace: write event %d: %w", e.Seq, err))
	}
}

// setErr records the first failure; later ones are dropped (the first is the
// actionable one — everything after is usually the same broken sink).
func (l *Logger) setErr(err error) {
	if l.err == nil {
		l.err = err
	}
}

// Err returns the first write or marshal error the logger has hit, nil if
// the log is intact. Callers that persist traces must check it before
// trusting the file (cmd/nebula-sim fails the run on a non-nil Err).
func (l *Logger) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// The constructors below build the accounting events. A producer hands each
// to its one recording path (fed.Nebula.record), which emits it and applies
// it to the live ledgers through the same steps the readers of a log use
// (Summary.Apply here, RoundMetrics.apply in fed) — so what a run counted and
// what its log replays to cannot differ.

// RoundStart opens a communication round. deadline is the round's sim-time
// budget in a deadline-paced (semi-async) round, 0 in a bulk-synchronous one.
func RoundStart(round int, deadline float64) Event {
	return Event{Kind: KindRoundStart, Round: round, Deadline: deadline}
}

// ClientUpdate is one device's participation, landing in round. stale is the
// number of rounds since the update's launch (0 = on time): a carried
// straggler's simTime is the time since its launch, not the landing round's
// slot, so CloseRounds never takes a stale update for a round's slot.
func ClientUpdate(round, client, modules int, bytesDown, bytesUp int64, simTime float64, stale int) Event {
	return Event{Kind: KindClientUpdate, Round: round, Client: client, Modules: modules,
		BytesDn: bytesDown, BytesUp: bytesUp, SimTime: simTime, Stale: stale}
}

// Churn is a fleet membership change or a transfer outside any device's
// round: note is "join", "leave", "drop_pending" or "bootstrap" (a device
// that never took part was handed a sub-model, e.g. to be evaluated).
// bytesDown is the download traffic the event accounts for: the bootstrap
// sub-model of a join or bootstrap, what a dropped straggler had already
// consumed, 0 for a leave.
func Churn(round, client int, note string, bytesDown int64) Event {
	return Event{Kind: KindChurn, Round: round, Client: client, Note: note, BytesDn: bytesDown}
}

// Aggregate is a cloud aggregation over n device updates.
func Aggregate(round, updates int) Event {
	return Event{Kind: KindAggregate, Round: round, Modules: updates}
}

// RoundEnd closes a round with its authoritative slot time — the simulated
// seconds the round took (slowest participant, including link time spent by
// devices that ended up skipping, which no client update carries).
func RoundEnd(round int, simTime float64) Event {
	return Event{Kind: KindRoundEnd, Round: round, SimTime: simTime}
}

// Read parses a JSONL stream back into events (the replay side).
func Read(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("trace: decode event %d: %w", len(out)+1, err)
		}
		out = append(out, e)
	}
}

// CheckSeq verifies a replayed log is gap-free: sequence numbers must start
// at 1 and increase by exactly 1. A gap means the producer dropped a write
// (the failure mode Logger.Err records on the producing side); replay-side
// consumers use this to refuse silently-truncated accounting.
func CheckSeq(events []Event) error {
	for i, e := range events {
		if want := int64(i + 1); e.Seq != want {
			return fmt.Errorf("trace: sequence gap at event %d: seq %d, want %d (a write was dropped or the log was truncated)", i, e.Seq, want)
		}
	}
	return nil
}

// Summary is the accounting ledger of a run: rounds, bytes both ways and
// simulated time. It is what a log folds to (Summarize) and, under the name
// fed.Costs, what a strategy reports live.
type Summary struct {
	BytesUp   int64
	BytesDown int64
	SimTime   float64 // simulated wall-clock seconds: the sum of the round slots
	Rounds    int
}

// Total returns up+down bytes.
func (s Summary) Total() int64 { return s.BytesUp + s.BytesDown }

// Apply moves the ledger by one event: a round_start counts a round, client
// updates and churn carry traffic, a round_end carries the round's slot.
func (s *Summary) Apply(e Event) {
	switch e.Kind {
	case KindRoundStart:
		s.Rounds++
	case KindClientUpdate, KindChurn:
		s.BytesUp += e.BytesUp
		s.BytesDown += e.BytesDn
	case KindRoundEnd:
		s.SimTime += e.SimTime
	}
}

// Summarize folds a log into its Summary.
func Summarize(events []Event) Summary {
	var s Summary
	for _, e := range CloseRounds(events) {
		s.Apply(e)
	}
	return s
}

// CloseRounds returns the log with a round_end supplied for every round that
// lacks one (a partial log, or one written before round_end existed): its
// slot is the largest on-time client-update SimTime of the round. A log whose
// rounds are all closed — every log a live run writes — comes back equal. The
// input is not modified.
func CloseRounds(events []Event) []Event {
	out := make([]Event, 0, len(events))
	open, round, slot := false, 0, 0.0
	closeRound := func() {
		if open {
			out = append(out, RoundEnd(round, slot))
		}
	}
	for _, e := range events {
		switch e.Kind {
		case KindRoundStart:
			closeRound()
			open, round, slot = true, e.Round, 0
		case KindClientUpdate:
			if e.Stale == 0 && e.SimTime > slot {
				slot = e.SimTime
			}
		case KindRoundEnd:
			open = false
		}
		out = append(out, e)
	}
	closeRound()
	return out
}
