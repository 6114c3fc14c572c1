// Package span is the causal wall-clock tracing layer (docs/OBSERVABILITY.md
// "Tracing"): Dapper-style spans with TraceID/SpanID/parent links, propagated
// across the edgenet RPC boundary and recorded into a bounded in-memory ring
// — a flight recorder that keeps the most recent spans and counts what it
// evicts, so tracing can stay on in long runs without unbounded growth.
//
// The layer is built around two contracts the rest of the repository already
// enforces for telemetry:
//
//   - Determinism: whether a trace is sampled is a pure keyed-hash function
//     of (sampler seed, key) — the same construction as edgenet.FaultConfig
//     rolls — never a draw from the master RNG and never dependent on
//     goroutine scheduling. Equal-seed runs sample the identical trace set at
//     any -workers value, which is what keeps -seed-audit and the workers
//     1-vs-4 byte gates green with tracing enabled.
//
//   - Artifact neutrality: spans are write-only. Nothing in the round or
//     protocol logic reads recorder state back, so figures, traces, and cost
//     ledgers are byte-identical with tracing on or off (the differential
//     test in internal/fed pins this, like the registry's two-pass test).
//
// Wall-clock time enters only through the sanctioned obs.Stopwatch gateway;
// span timestamps are offsets from the recorder's epoch, so they never touch
// simulated costs.
//
// The hot path is allocation-free: Start returns a zero Active when the
// recorder is nil or the trace is unsampled (0 allocs/op, pinned by
// AllocsPerRun), and a finished span is copied by value into a preallocated
// ring slot under a short mutex.
package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// TraceID identifies one causal tree of spans. IDs are keyed hashes, so the
// same (seed, key) yields the same TraceID in every run — replayed runs
// produce directly comparable trace files.
type TraceID uint64

// SpanID identifies one span within a recorder. IDs are allocated from an
// atomic counter; unlike TraceIDs they are scheduling-dependent, which is
// fine — they only need to be unique, and they never feed artifacts.
type SpanID uint64

// Span is one finished operation. All fields are fixed-size or constant
// strings so recording never allocates; spans cross process boundaries only
// as the TraceID/SpanID pair carried by edgenet requests.
type Span struct {
	Trace  TraceID `json:"trace"`
	ID     SpanID  `json:"id"`
	Parent SpanID  `json:"parent,omitempty"` // 0 = root
	Kind   string  `json:"kind"`
	Start  float64 `json:"start"` // seconds since the recorder epoch
	Dur    float64 `json:"dur"`   // wall-clock seconds (obs.Stopwatch)

	Device  int    `json:"dev,omitempty"`
	Round   int    `json:"round,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
	Note    string `json:"note,omitempty"`
	Err     string `json:"err,omitempty"`
}

// End returns the span's end offset in seconds since the recorder epoch.
func (s Span) End() float64 { return s.Start + s.Dur }

// Recorder is the flight recorder: a bounded ring of finished spans plus the
// deterministic sampler. A nil *Recorder is a valid "tracing off" recorder —
// every method is nil-safe and free.
type Recorder struct {
	epoch  obs.Stopwatch
	nextID atomic.Uint64

	// Sampler configuration; set once via SetSampler before spans flow.
	seed uint64
	rate float64

	mu      sync.Mutex
	ring    []Span // preallocated; slots are overwritten in place
	next    int    // next write index
	n       int    // filled slots (== len(ring) once wrapped)
	dropped uint64 // spans evicted by the ring wrapping
}

// DefaultCapacity holds roughly a full quick-profile experiment sweep; at
// ~150 B per span the recorder tops out near 5 MiB.
const DefaultCapacity = 1 << 15

// NewRecorder builds a flight recorder holding the most recent capacity
// spans (capacity <= 0 selects DefaultCapacity). The sampler starts fully
// closed; call SetSampler to open it.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{epoch: obs.StartTimer(), ring: make([]Span, capacity)}
}

// SetSampler configures the deterministic keyed-hash sampler: a trace keyed
// k is sampled iff hash(seed, k) maps below rate (0 = none, 1 = all). Call
// before handing the recorder to concurrent producers.
func (r *Recorder) SetSampler(seed int64, rate float64) {
	if r == nil {
		return
	}
	r.seed = uint64(seed)
	r.rate = rate
}

// Trace decides whether the trace keyed by key is sampled, returning its
// deterministic TraceID. The decision is a pure function of (sampler seed,
// key) — no RNG stream, no scheduling dependence — so equal-seed runs agree
// on the sampled set at every worker count (docs/OBSERVABILITY.md "Sampler
// determinism contract").
func (r *Recorder) Trace(key int64) (TraceID, bool) {
	if r == nil || r.rate <= 0 {
		return 0, false
	}
	h := obs.SplitMix64(r.seed ^ 0x7370616e) // "span"
	h = obs.SplitMix64(h ^ uint64(key))
	if r.rate < 1 && float64(h>>11)/(1<<53) >= r.rate {
		return 0, false
	}
	if h == 0 {
		h = 1 // TraceID 0 means "unsampled" on the wire
	}
	return TraceID(h), true
}

// Active is an in-flight span. The zero value is the rejected/disabled span:
// every method on it is a no-op, which is what makes instrumentation sites
// unconditional — no "if tracing" branches in round or protocol code.
type Active struct {
	rec *Recorder
	sw  obs.Stopwatch
	s   Span
}

// Start opens a span. It returns the zero Active — at zero allocations —
// when the recorder is nil or t is 0 (the trace was not sampled), so callers
// always Start/End unconditionally.
func (r *Recorder) Start(t TraceID, parent SpanID, kind string) Active {
	if r == nil || t == 0 {
		return Active{}
	}
	return Active{
		rec: r,
		sw:  obs.StartTimer(),
		s: Span{
			Trace:  t,
			ID:     SpanID(r.nextID.Add(1)),
			Parent: parent,
			Kind:   kind,
			Start:  r.epoch.Seconds(),
		},
	}
}

// ID returns the span's ID (0 for the zero Active), for parenting children.
func (a *Active) ID() SpanID { return a.s.ID }

// Trace returns the span's trace (0 for the zero Active).
func (a *Active) Trace() TraceID { return a.s.Trace }

// SetDevice attaches the acting device ID.
func (a *Active) SetDevice(id int) { a.s.Device = id }

// SetRound attaches the federated round number.
func (a *Active) SetRound(r int) { a.s.Round = r }

// SetAttempt attaches the retry attempt index.
func (a *Active) SetAttempt(n int) { a.s.Attempt = n }

// SetBytes attaches the payload size the span moved.
func (a *Active) SetBytes(n int64) { a.s.Bytes = n }

// SetNote attaches a short static label (e.g. a churn event name). Pass
// constant strings to keep the hot path allocation-free.
func (a *Active) SetNote(n string) { a.s.Note = n }

// SetErr records the outcome error (nil clears nothing and costs nothing).
func (a *Active) SetErr(err error) {
	if err != nil && a.rec != nil {
		a.s.Err = err.Error()
	}
}

// End finishes the span and pushes it into the flight recorder. Safe to call
// more than once (later calls are no-ops) and on the zero Active.
func (a *Active) End() {
	if a.rec == nil {
		return
	}
	a.s.Dur = a.sw.Seconds()
	a.rec.push(a.s)
	a.rec = nil
}

// push stores one finished span, overwriting the oldest when full. The lock
// covers two integer updates and one struct copy into a preallocated slot —
// cheap enough for worker fan-outs and server handlers to share.
func (r *Recorder) push(s Span) {
	r.mu.Lock()
	if r.n == len(r.ring) {
		r.dropped++
	} else {
		r.n++
	}
	r.ring[r.next] = s
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
	}
	r.mu.Unlock()
}

// Len reports how many spans the recorder currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped reports how many finished spans the ring has evicted.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Snapshot copies the held spans out in recording (End-time) order, oldest
// first.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, r.n)
	start := 0
	if r.n == len(r.ring) {
		start = r.next
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// WriteJSON writes the held spans as JSON lines (one span per line), the
// format cmd/nebula-spans reads.
func (r *Recorder) WriteJSON(w io.Writer) error {
	return WriteJSON(w, r.Snapshot())
}

// WriteJSON writes spans as JSON lines.
func WriteJSON(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return fmt.Errorf("span: encode: %w", err)
		}
	}
	return bw.Flush()
}

// ReadJSON parses a JSONL span stream (the /spans endpoint or a -spans file).
func ReadJSON(rd io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var out []Span
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("span: line %d: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("span: read: %w", err)
	}
	return out, nil
}

// ServeHTTP exposes the flight recorder as JSONL — mounted at /spans on the
// admin server. Serving is read-only over a snapshot, preserving the admin
// plane's artifact-neutrality contract.
func (r *Recorder) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	if r == nil {
		return
	}
	// A mid-scrape client disconnect is the client's problem; there is no
	// useful recovery once the header is sent.
	_ = r.WriteJSON(w) //nolint:errdrop -- best-effort scrape reply; the write error surfaces client-side
}

// ValidateParents checks the structural invariant a complete trace file
// satisfies: every non-root span's parent exists within the same trace.
// (A flight recorder that wrapped may legitimately fail this — size the ring
// to the run, or treat the error as "truncated".)
func ValidateParents(spans []Span) error {
	type key struct {
		t  TraceID
		id SpanID
	}
	have := make(map[key]bool, len(spans))
	for i := range spans {
		have[key{spans[i].Trace, spans[i].ID}] = true
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			continue
		}
		if !have[key{s.Trace, s.Parent}] {
			return fmt.Errorf("span %d (kind %s, trace %d) references missing parent %d", s.ID, s.Kind, s.Trace, s.Parent)
		}
	}
	return nil
}
