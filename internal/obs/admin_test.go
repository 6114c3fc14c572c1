package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func adminGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Help("nebula_round_total", "Completed rounds.")
	r.Counter("nebula_round_total").Add(3)
	r.Gauge("nebula_bytes_up").Set(2048)
	r.Histogram("nebula_phase_seconds", []float64{0.1, 1}, "phase", "train").Observe(0.05)

	a := NewAdmin(r)
	a.AddSection("pool", func(w io.Writer) { fmt.Fprintln(w, "workers: 4") })
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	if code, body := adminGet(t, addr, "/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body := adminGet(t, addr, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"# HELP nebula_round_total Completed rounds.",
		"# TYPE nebula_round_total counter",
		"nebula_round_total 3",
		"nebula_bytes_up 2048",
		`nebula_phase_seconds_bucket{phase="train",le="0.1"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	// Byte-stability at quiescence: two scrapes must be identical.
	_, again := adminGet(t, addr, "/metrics")
	if body != again {
		t.Fatalf("/metrics not byte-stable:\n--- 1 ---\n%s--- 2 ---\n%s", body, again)
	}

	a.SetState("running")
	code, body = adminGet(t, addr, "/statusz")
	if code != 200 {
		t.Fatalf("/statusz = %d", code)
	}
	for _, want := range []string{"state:  running", "nebula_round_total", "2.00 KiB", "== pool ==", "workers: 4"} {
		if !strings.Contains(body, want) {
			t.Errorf("/statusz missing %q in:\n%s", want, body)
		}
	}

	if code, body := adminGet(t, addr, "/debug/pprof/goroutine?debug=1"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof goroutine = %d %q", code, body)
	}

	if code, _ := adminGet(t, addr, "/no-such"); code != 404 {
		t.Fatalf("unknown path = %d, want 404", code)
	}
	if code, body := adminGet(t, addr, "/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index = %d %q", code, body)
	}
}

func TestAdminMergesRegistries(t *testing.T) {
	a := NewRegistry()
	a.Counter("nebula_from_a_total").Inc()
	b := NewRegistry()
	b.Counter("nebula_from_b_total").Inc()
	adm := NewAdmin(a, b)
	addr, err := adm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	_, body := adminGet(t, addr, "/metrics")
	ia, ib := strings.Index(body, "nebula_from_a_total"), strings.Index(body, "nebula_from_b_total")
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("merged exposition wrong:\n%s", body)
	}
}

func TestAdminCloseIsIdempotentAndNilSafe(t *testing.T) {
	var nilAdm *Admin
	if err := nilAdm.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	nilAdm.SetState("x")
	if s := nilAdm.State(); s != "" {
		t.Fatalf("nil State = %q", s)
	}
	adm := NewAdmin(NewRegistry())
	if err := adm.Close(); err != nil { // never listened
		t.Fatalf("unlistened Close: %v", err)
	}
}

// brokenWriter fails after limit bytes — a client that disconnected
// mid-scrape, as seen from the handler.
type brokenWriter struct {
	n, limit int
}

func (b *brokenWriter) Write(p []byte) (int, error) {
	if b.n+len(p) > b.limit {
		return 0, fmt.Errorf("connection reset by peer")
	}
	b.n += len(p)
	return len(p), nil
}

func TestStickyWriterStopsAtFirstError(t *testing.T) {
	sw := &stickyWriter{w: &brokenWriter{limit: 4}}
	if _, err := sw.Write([]byte("ok\n")); err != nil {
		t.Fatalf("write under limit failed: %v", err)
	}
	if _, err := sw.Write([]byte("too long")); err == nil {
		t.Fatal("write over limit must surface the error")
	}
	if _, err := sw.Write([]byte("x")); err == nil {
		t.Fatal("writes after a failure must keep failing (sticky)")
	}
	if sw.err == nil {
		t.Fatal("sticky error must remain readable")
	}
}

// TestAdminCountsFailedScrapes is the errdrop regression: a response write
// failure used to disappear — every handler dropped its write error — so a
// dead monitoring pipe was indistinguishable from a healthy one. Now each
// failed scrape increments ScrapeErrors and shows up on /statusz.
func TestAdminCountsFailedScrapes(t *testing.T) {
	r := NewRegistry()
	r.Counter("nebula_x_total").Inc()
	a := NewAdmin(r)
	if got := a.ScrapeErrors(); got != 0 {
		t.Fatalf("fresh admin reports %d scrape errors", got)
	}

	// Drive the handler bodies directly through serveText with a writer that
	// dies mid-response; each failure must be counted exactly once.
	a.serveText(failingResponseWriter{}, "text/plain", func(out io.Writer) error {
		_, err := fmt.Fprintln(out, "ok")
		return err
	})
	if got := a.ScrapeErrors(); got != 1 {
		t.Fatalf("ScrapeErrors = %d after one failed scrape, want 1", got)
	}
	a.serveText(failingResponseWriter{}, "text/plain", func(out io.Writer) error {
		return WritePrometheus(out, a.snapshot())
	})
	a.serveText(failingResponseWriter{}, "text/plain", func(out io.Writer) error {
		a.writeStatus(out)
		return nil
	})
	if got := a.ScrapeErrors(); got != 3 {
		t.Fatalf("ScrapeErrors = %d after three failed scrapes, want 3", got)
	}

	// A healthy scrape does not bump the counter, and /statusz surfaces the
	// accumulated failures.
	var ok strings.Builder
	a.serveText(passthroughResponseWriter{&ok}, "text/plain", func(out io.Writer) error {
		a.writeStatus(out)
		return nil
	})
	if got := a.ScrapeErrors(); got != 3 {
		t.Fatalf("ScrapeErrors = %d after a healthy scrape, want still 3", got)
	}
	if !strings.Contains(ok.String(), "scrape errors: 3") {
		t.Fatalf("/statusz does not surface the scrape-error count:\n%s", ok.String())
	}
}

// failingResponseWriter implements http.ResponseWriter with writes that
// always fail.
type failingResponseWriter struct{}

func (failingResponseWriter) Header() http.Header       { return http.Header{} }
func (failingResponseWriter) WriteHeader(int)           {}
func (failingResponseWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("broken pipe") }

// passthroughResponseWriter adapts a strings.Builder to http.ResponseWriter.
type passthroughResponseWriter struct{ b *strings.Builder }

func (p passthroughResponseWriter) Header() http.Header { return http.Header{} }
func (p passthroughResponseWriter) WriteHeader(int)     {}
func (p passthroughResponseWriter) Write(b []byte) (int, error) {
	return p.b.Write(b)
}

func TestAdminAddHandlerMounts(t *testing.T) {
	a := NewAdmin(NewRegistry())
	a.AddHandler("/spans", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("span data\n"))
	}))
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if code, body := adminGet(t, addr, "/spans"); code != 200 || body != "span data\n" {
		t.Fatalf("/spans = %d %q", code, body)
	}
}

func TestHumanize(t *testing.T) {
	cases := []struct {
		name string
		v    float64
		want string
	}{
		{"nebula_bytes_up", 512, "512 B"},
		{"nebula_bytes_up", 2048, "2.00 KiB"},
		{"nebula_traffic_bytes", 3 * 1024 * 1024, "3.00 MiB"},
		{"nebula_phase_seconds", 0, "0 s"},
		{"nebula_phase_seconds", 0.0000005, "0.5 µs"},
		{"nebula_phase_seconds", 0.002, "2.0 ms"},
		{"nebula_phase_seconds", 1.5, "1.50 s"},
		{"nebula_phase_seconds", 600, "10.0 min"},
		{"nebula_round_total", 42, "42"},
	}
	for _, c := range cases {
		if got := humanize(c.name, c.v); got != c.want {
			t.Errorf("humanize(%s, %v) = %q, want %q", c.name, c.v, got, c.want)
		}
	}
}
