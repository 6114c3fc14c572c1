package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("nebula_test_total")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter value = %v, want 3.5", got)
	}
	if again := r.Counter("nebula_test_total"); again != c {
		t.Fatalf("same name+labels returned a different handle")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("nebula_test_gauge")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge value = %v, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("nebula_test_hist", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	if got := h.Sum(); got != 108 {
		t.Fatalf("sum = %v, want 108", got)
	}
	// le semantics: bucket bounds are inclusive upper bounds.
	want := []uint64{2, 4, 5, 6} // cumulative: le=1, le=2, le=4, +Inf
	snap := r.Snapshot()
	if len(snap) != 1 || len(snap[0].Points) != 1 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	p := snap[0].Points[0]
	if len(p.Buckets) != 4 {
		t.Fatalf("bucket count = %d, want 4", len(p.Buckets))
	}
	for i, b := range p.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket[%d] (le=%v) = %d, want %d", i, b.UpperBound, b.Count, want[i])
		}
	}
	if !math.IsInf(p.Buckets[3].UpperBound, 1) {
		t.Errorf("last bucket bound = %v, want +Inf", p.Buckets[3].UpperBound)
	}
	if p.Count != 6 || p.Sum != 108 {
		t.Errorf("point count/sum = %d/%v, want 6/108", p.Count, p.Sum)
	}
}

func TestLabelCanonicalization(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("nebula_test_total", "zeta", "1", "alpha", "2")
	b := r.Counter("nebula_test_total", "alpha", "2", "zeta", "1")
	if a != b {
		t.Fatalf("label order should not matter for handle identity")
	}
	a.Inc()
	snap := r.Snapshot()
	if got := snap[0].Points[0].Labels; got != `alpha="2",zeta="1"` {
		t.Fatalf("canonical labels = %q", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("nebula_test_total", "k", "a\"b\\c\nd").Inc()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `k="a\"b\\c\nd"`) {
		t.Fatalf("escaping missing in %q", buf.String())
	}
}

func TestInvalidUsagePanics(t *testing.T) {
	r := NewRegistry()
	for name, fn := range map[string]func(){
		"bad metric name":  func() { r.Counter("bad-name") },
		"odd labels":       func() { r.Counter("nebula_ok_total", "only_key") },
		"dup labels":       func() { r.Counter("nebula_ok_total", "k", "1", "k", "2") },
		"bad label name":   func() { r.Counter("nebula_ok_total", "bad-key", "v") },
		"type redeclare":   func() { r.Counter("nebula_mixed"); r.Gauge("nebula_mixed") },
		"unsorted bounds":  func() { r.Histogram("nebula_h", []float64{2, 1}) },
		"duplicate bounds": func() { r.Histogram("nebula_h2", []float64{1, 1}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Help("x", "y")
	c := r.Counter("nebula_test_total")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := r.Gauge("nebula_test_gauge")
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge accumulated")
	}
	h := r.Histogram("nebula_test_hist", DefBuckets)
	h.Observe(1)
	h.ObserveSince(StartTimer())
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram accumulated")
	}
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v", snap)
	}
}

func TestHelpPlaceholderAndAttachment(t *testing.T) {
	r := NewRegistry()
	r.Help("nebula_later_total", "help set before creation")
	// Placeholder alone must not appear in exposition.
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("placeholder leaked into snapshot: %+v", snap)
	}
	r.Counter("nebula_later_total").Inc()
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Help != "help set before creation" {
		t.Fatalf("help not attached: %+v", snap)
	}
}

// TestDeterministicExposition is the core determinism pin: creation order
// must not affect output, and two renders are byte-identical.
func TestDeterministicExposition(t *testing.T) {
	build := func(order []int) string {
		r := NewRegistry()
		ops := []func(){
			func() { r.Counter("nebula_c_total", "dev", "2").Add(5) },
			func() { r.Counter("nebula_c_total", "dev", "1").Add(3) },
			func() { r.Gauge("nebula_b_gauge").Set(1.5) },
			func() { r.Histogram("nebula_a_seconds", []float64{0.1, 1}, "phase", "train").Observe(0.5) },
		}
		for _, i := range order {
			ops[i]()
		}
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 2, 1, 0})
	if a != b {
		t.Fatalf("exposition depends on creation order:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	// Families sorted by name; children sorted by labels.
	wantOrder := []string{"nebula_a_seconds", "nebula_b_gauge", "nebula_c_total"}
	var pos []int
	for _, n := range wantOrder {
		pos = append(pos, strings.Index(a, "# TYPE "+n))
	}
	if !(pos[0] >= 0 && pos[0] < pos[1] && pos[1] < pos[2]) {
		t.Fatalf("families not sorted by name in:\n%s", a)
	}
	if strings.Index(a, `dev="1"`) > strings.Index(a, `dev="2"`) {
		t.Fatalf("children not sorted by labels in:\n%s", a)
	}
	if strings.Contains(a, " 1.5e") {
		t.Fatalf("unexpected exponent formatting: %s", a)
	}
}

func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Help("nebula_req_total", "Requests served.")
	r.Counter("nebula_req_total", "kind", "fetch").Add(3)
	r.Histogram("nebula_lat_seconds", []float64{0.5, 1}).Observe(0.25)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE nebula_lat_seconds histogram
nebula_lat_seconds_bucket{le="0.5"} 1
nebula_lat_seconds_bucket{le="1"} 1
nebula_lat_seconds_bucket{le="+Inf"} 1
nebula_lat_seconds_sum 0.25
nebula_lat_seconds_count 1
# HELP nebula_req_total Requests served.
# TYPE nebula_req_total counter
nebula_req_total{kind="fetch"} 3
`
	if buf.String() != want {
		t.Fatalf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

func TestMergeSnapshots(t *testing.T) {
	a := NewRegistry()
	a.Counter("nebula_shared_total", "src", "a").Add(1)
	a.Counter("nebula_only_a_total").Add(2)
	b := NewRegistry()
	b.Counter("nebula_shared_total", "src", "b").Add(3)
	merged := MergeSnapshots(a.Snapshot(), b.Snapshot())
	if got := SortedNames(merged); strings.Join(got, ",") != "nebula_only_a_total,nebula_shared_total" {
		t.Fatalf("merged names = %v", got)
	}
	for _, f := range merged {
		if f.Name == "nebula_shared_total" {
			if len(f.Points) != 2 || f.Points[0].Labels != `src="a"` || f.Points[1].Labels != `src="b"` {
				t.Fatalf("shared family points = %+v", f.Points)
			}
		}
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(256, 4, 3)
	if exp[0] != 256 || exp[1] != 1024 || exp[2] != 4096 {
		t.Fatalf("ExpBuckets = %v", exp)
	}
}

// TestHotPathAllocs pins the acceptance criterion: counter, gauge, and
// histogram updates allocate nothing in steady state.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("nebula_alloc_total", "kind", "x")
	g := r.Gauge("nebula_alloc_gauge")
	h := r.Histogram("nebula_alloc_seconds", DefBuckets)
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(3) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.01) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v per op", n)
	}
}

// TestConcurrentUpdates exercises the atomic hot paths under the race
// detector and checks the totals are exact.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("nebula_conc_total")
	h := r.Histogram("nebula_conc_hist", []float64{10})
	g := r.Gauge("nebula_conc_gauge")
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(1)
				// Concurrent snapshots must be safe too.
				if i%500 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %v, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Errorf("gauge = %v, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestFmtVal(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		3:       "3",
		-7:      "-7",
		2.5:     "2.5",
		1e20:    "1e+20",
		0.0005:  "0.0005",
		1048576: "1048576",
	}
	for in, want := range cases {
		if got := fmtVal(in); got != want {
			t.Errorf("fmtVal(%v) = %q, want %q", in, got, want)
		}
	}
}
