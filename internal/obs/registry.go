// Package obs is the runtime telemetry plane: a stdlib-only metrics
// registry (counters, gauges, fixed-bucket histograms, all with label
// support), deterministic Prometheus-text and JSON exposition, and an
// opt-in admin HTTP server mounting /metrics, /healthz, /statusz, and
// net/http/pprof.
//
// Two contracts shape the design (docs/OBSERVABILITY.md):
//
//   - Hot paths are lock-cheap and allocation-free. Handles are created
//     once (under the registry lock) and held by the instrumented code;
//     Counter.Add, Gauge.Set, and Histogram.Observe are pure atomics with
//     zero steady-state allocations (pinned by TestHotPathAllocs).
//
//   - Observability is artifact-neutral. Metrics never feed back into
//     simulation logic, exposition carries no timestamps, and iteration
//     order is canonical (families sorted by name, children by label set),
//     so a scrape is a pure function of the counters' values. A
//     differential test in internal/fed runs one seeded experiment twice in
//     a process — the second pass on top of every counter the first left —
//     and requires byte-identical artifacts. There is no off switch: a
//     handle's hot path is its atomics and nothing else.
//
// obs is a leaf package: it imports only the standard library, so every
// layer (tensor, edgenet, fed, cmd/*) can instrument against it without
// import cycles. It is also the only place allowed to read the wall clock —
// nebula-lint's rawclock check keeps time.Now out of simulation code;
// callers that need wall-time measurement use Stopwatch.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType discriminates the three instrument kinds.
type MetricType string

// The metric kinds a Registry can hold.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Registry holds metric families keyed by name. The zero value is not
// usable; construct with NewRegistry. A nil *Registry is safe: every
// constructor returns a nil handle whose operations no-op, so optional
// instrumentation never needs nil checks at call sites.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric with its children (one per label set).
type family struct {
	name   string
	typ    MetricType
	help   string
	bounds []float64 // histogram bucket upper bounds (nil otherwise)
	// children maps the canonical label string (`k="v",k2="v2"`, keys
	// sorted) to the handle. Creation is idempotent: asking for the same
	// name+labels returns the existing handle.
	children map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// defaultRegistry is the process-wide registry package-level
// instrumentation (tensor kernels, edgenet clients, fed rounds) binds to.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Help attaches (or replaces) the help text of a family, creating nothing:
// unknown names are remembered and applied when the family appears.
func (r *Registry) Help(name, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		f.help = text
		return
	}
	r.families[name] = &family{name: name, help: text, children: map[string]any{}}
}

// Counter returns the counter for name and the given label pairs
// ("key", "value", ...), creating it on first use. Counters only go up;
// negative deltas are a programming error the registry does not police on
// the hot path.
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	if r == nil {
		return nil
	}
	f, key := r.family(name, TypeCounter, nil, labelPairs)
	defer r.mu.Unlock()
	if h, ok := f.children[key]; ok {
		return h.(*Counter)
	}
	c := &Counter{}
	f.children[key] = c
	return c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	if r == nil {
		return nil
	}
	f, key := r.family(name, TypeGauge, nil, labelPairs)
	defer r.mu.Unlock()
	if h, ok := f.children[key]; ok {
		return h.(*Gauge)
	}
	g := &Gauge{}
	f.children[key] = g
	return g
}

// Histogram returns the fixed-bucket histogram for name+labels, creating
// it on first use. bounds are inclusive upper bounds in strictly increasing
// order; an implicit +Inf bucket is always appended. All children of one
// family share the first creation's bounds.
func (r *Registry) Histogram(name string, bounds []float64, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing: %v", name, bounds))
		}
	}
	f, key := r.family(name, TypeHistogram, bounds, labelPairs)
	defer r.mu.Unlock()
	if h, ok := f.children[key]; ok {
		return h.(*Histogram)
	}
	h := &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
	f.children[key] = h
	return h
}

// family finds or creates the named family, validating type consistency.
// It returns with r.mu HELD; the caller must unlock.
func (r *Registry) family(name string, typ MetricType, bounds []float64, labelPairs []string) (*family, string) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	key := canonLabels(labelPairs)
	r.mu.Lock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, typ: typ, bounds: append([]float64(nil), bounds...), children: map[string]any{}}
		r.families[name] = f
		return f, key
	}
	if f.typ == "" { // placeholder created by Help
		f.typ = typ
		f.bounds = append([]float64(nil), bounds...)
		return f, key
	}
	if f.typ != typ {
		r.mu.Unlock()
		panic(fmt.Sprintf("obs: metric %q redeclared as %s (was %s)", name, typ, f.typ))
	}
	return f, key
}

// validName enforces the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// canonLabels renders ("k","v",...) pairs as the canonical sorted
// `k="v",k2="v2"` string used both as the child key and in exposition.
func canonLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", pairs))
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		if !validName(pairs[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q", pairs[i]))
		}
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	for i := 1; i < len(kvs); i++ {
		if kvs[i].k == kvs[i-1].k {
			panic(fmt.Sprintf("obs: duplicate label %q", kvs[i].k))
		}
	}
	var b strings.Builder
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel applies the Prometheus text-format label escaping.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// --- handles --------------------------------------------------------------

// Counter is a monotonically increasing float64. The nil handle (from a nil
// registry) makes Add a no-op.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Add increments the counter. Exact for integer-valued deltas below 2^53.
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total (0 for a nil handle).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is an arbitrary float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by v (negative to decrement).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current value (0 for a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Buckets are inclusive
// upper bounds plus an implicit +Inf; Observe is a binary search and two
// atomic updates — no locks, no allocations.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound, plus the +Inf overflow
	sum    atomic.Uint64   // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound is >= v (le semantics).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the wall-clock seconds elapsed on a Stopwatch —
// the one sanctioned way simulation code measures wall time (see
// Stopwatch and nebula-lint's rawclock check).
func (h *Histogram) ObserveSince(sw Stopwatch) { h.Observe(sw.Seconds()) }

// Count returns the number of observations (0 for a nil handle).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values (0 for a nil handle).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// --- bucket helpers -------------------------------------------------------

// DefBuckets are general-purpose latency buckets in seconds.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// SizeBuckets are payload-size buckets in bytes (256 B … 64 MiB).
var SizeBuckets = ExpBuckets(256, 4, 10)

// ExpBuckets returns n exponentially growing bounds: start, start·factor, …
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("obs: ExpBuckets needs n>0, start>0, factor>1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
