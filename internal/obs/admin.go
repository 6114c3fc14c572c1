package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Admin is the opt-in telemetry HTTP server. It mounts:
//
//	/healthz                 liveness ("ok")
//	/metrics                 Prometheus text exposition (canonical, no timestamps)
//	/statusz                 human-readable snapshot (state, key counters, sections)
//	/debug/pprof/...         net/http/pprof (profile, heap, goroutine, trace, ...)
//
// The server is read-only: nothing it serves can mutate registry or
// simulation state, which is half of the artifact-neutrality contract
// (the other half is that scraping performs only atomic loads).
type Admin struct {
	regs []*Registry

	mu       sync.Mutex
	sections []statusSection
	extra    map[string]http.Handler

	// scrapeErrs counts responses that failed mid-write (client gone,
	// connection reset). A scrape that dies half-delivered used to vanish
	// without a trace — the handlers dropped every write error — so a
	// monitoring outage looked identical to healthy silence.
	scrapeErrs atomic.Int64

	state   atomic.Value // string: "starting" → "running" → "quiescent"
	started Stopwatch

	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

type statusSection struct {
	title string
	fn    func(io.Writer)
}

// NewAdmin builds an admin server over one or more registries; their
// snapshots are merged at scrape time (names sorted across all of them).
func NewAdmin(regs ...*Registry) *Admin {
	a := &Admin{regs: regs, done: make(chan struct{}), started: StartTimer()}
	a.state.Store("starting")
	return a
}

// SetState publishes the run state shown by /statusz ("running",
// "quiescent", ...). ci.sh polls it to detect quiescence before asserting
// scrape stability.
func (a *Admin) SetState(s string) {
	if a != nil {
		a.state.Store(s)
	}
}

// State returns the current published state.
func (a *Admin) State() string {
	if a == nil {
		return ""
	}
	return a.state.Load().(string)
}

// AddSection appends a custom /statusz section rendered by fn.
func (a *Admin) AddSection(title string, fn func(io.Writer)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sections = append(a.sections, statusSection{title: title, fn: fn})
}

// AddHandler mounts an extra read-only endpoint (e.g. the span flight
// recorder's /spans). Call before Listen; the mux is built once at bind time.
func (a *Admin) AddHandler(path string, h http.Handler) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.extra == nil {
		a.extra = map[string]http.Handler{}
	}
	a.extra[path] = h
}

// ScrapeErrors reports how many HTTP responses failed mid-write.
func (a *Admin) ScrapeErrors() int64 { return a.scrapeErrs.Load() }

// Listen binds addr (e.g. "127.0.0.1:0") and serves in the background,
// returning the bound address. Close shuts the listener down and waits for
// the serve loop.
func (a *Admin) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: admin listen %s: %w", addr, err)
	}
	a.ln = ln
	a.srv = &http.Server{Handler: a.handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		// Serve returns http.ErrServerClosed on Close; anything else means
		// the admin plane died, which /healthz consumers will notice.
		_ = a.srv.Serve(ln)
		close(a.done)
	}()
	return ln.Addr().String(), nil
}

// Close stops the server and waits for the serve loop to exit.
func (a *Admin) Close() error {
	if a == nil || a.srv == nil {
		return nil
	}
	err := a.srv.Close()
	<-a.done
	return err
}

// snapshot merges all registries' families.
func (a *Admin) snapshot() []Family {
	snaps := make([][]Family, 0, len(a.regs))
	for _, r := range a.regs {
		snaps = append(snaps, r.Snapshot())
	}
	return MergeSnapshots(snaps...)
}

// stickyWriter forwards writes until the first error, then swallows the
// rest. It keeps the error readable so a handler can count one failed
// scrape instead of silently dropping every subsequent write error — the
// same errdrop class the edgenet sweep fixed on the wire path.
type stickyWriter struct {
	w   io.Writer
	err error
}

func (s *stickyWriter) Write(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	n, err := s.w.Write(p)
	if err != nil {
		s.err = err
	}
	return n, err
}

// serveText runs one read-only handler body through a stickyWriter. A
// response write failure cannot be salvaged — the header is already out —
// but it must not vanish either: the failed scrape is counted, and the
// count is visible on /statusz.
func (a *Admin) serveText(w http.ResponseWriter, contentType string, body func(io.Writer) error) {
	w.Header().Set("Content-Type", contentType)
	sw := &stickyWriter{w: w}
	err := body(sw)
	if err == nil {
		err = sw.err
	}
	if err != nil {
		a.scrapeErrs.Add(1)
	}
}

func (a *Admin) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		a.serveText(w, "text/plain; charset=utf-8", func(out io.Writer) error {
			_, err := fmt.Fprintln(out, "ok")
			return err
		})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		a.serveText(w, "text/plain; version=0.0.4; charset=utf-8", func(out io.Writer) error {
			return WritePrometheus(out, a.snapshot())
		})
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		a.serveText(w, "text/plain; charset=utf-8", func(out io.Writer) error {
			a.writeStatus(out)
			return nil // write failures surface via the stickyWriter
		})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	a.mu.Lock()
	paths := make([]string, 0, len(a.extra))
	//nolint:maporder -- keys are collected for sorting right below
	for p := range a.extra {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		mux.Handle(p, a.extra[p])
	}
	a.mu.Unlock()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		a.serveText(w, "text/plain; charset=utf-8", func(out io.Writer) error {
			_, err := fmt.Fprintln(out, "nebula admin endpoints: /healthz /metrics /statusz /debug/pprof/")
			return err
		})
	})
	return mux
}

// writeStatus renders the human-readable snapshot: run state, uptime, then
// every counter/gauge with light unit formatting and histograms as
// count/mean digests, then the registered custom sections.
func (a *Admin) writeStatus(w io.Writer) {
	fmt.Fprintf(w, "state:  %s\n", a.State())
	fmt.Fprintf(w, "uptime: %s\n", a.started.Elapsed().Round(time.Millisecond))
	if n := a.scrapeErrs.Load(); n > 0 {
		fmt.Fprintf(w, "scrape errors: %d\n", n)
	}
	for _, f := range a.snapshot() {
		fmt.Fprintf(w, "\n%s (%s)", f.Name, f.Type)
		if f.Help != "" {
			fmt.Fprintf(w, " — %s", f.Help)
		}
		fmt.Fprintln(w)
		for _, p := range f.Points {
			label := p.Labels
			if label == "" {
				label = "-"
			}
			if f.Type == TypeHistogram {
				mean := 0.0
				if p.Count > 0 {
					mean = p.Sum / float64(p.Count)
				}
				fmt.Fprintf(w, "  %-40s count=%d sum=%s mean=%s\n", label, p.Count,
					humanize(f.Name, p.Sum), humanize(f.Name, mean))
				continue
			}
			fmt.Fprintf(w, "  %-40s %s\n", label, humanize(f.Name, p.Value))
		}
	}
	a.mu.Lock()
	sections := append([]statusSection(nil), a.sections...)
	a.mu.Unlock()
	for _, s := range sections {
		fmt.Fprintf(w, "\n== %s ==\n", s.title)
		s.fn(w)
	}
}

// humanize applies unit formatting keyed off the metric name suffixing
// convention (docs/OBSERVABILITY.md): *_bytes* gets binary units,
// *_seconds* gets duration units, everything else plain numbers.
func humanize(name string, v float64) string {
	switch {
	case strings.Contains(name, "bytes"):
		return fmtBytesHuman(v)
	case strings.Contains(name, "seconds"):
		return fmtSecondsHuman(v)
	default:
		return fmtVal(v)
	}
}

func fmtBytesHuman(v float64) string {
	const unit = 1024.0
	if v < unit {
		return fmt.Sprintf("%s B", fmtVal(v))
	}
	exp := 0
	for v >= unit && exp < 6 {
		v /= unit
		exp++
	}
	return fmt.Sprintf("%.2f %ciB", v, "KMGTPE"[exp-1])
}

func fmtSecondsHuman(v float64) string {
	switch {
	case v == 0:
		return "0 s"
	case v < 1e-3:
		return fmt.Sprintf("%.1f µs", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.1f ms", v*1e3)
	case v < 120:
		return fmt.Sprintf("%.2f s", v)
	default:
		return fmt.Sprintf("%.1f min", v/60)
	}
}

// SortedNames returns the family names of a snapshot (a convenience for
// tests and statusz-style digests).
func SortedNames(fams []Family) []string {
	out := make([]string, 0, len(fams))
	for _, f := range fams {
		out = append(out, f.Name)
	}
	sort.Strings(out)
	return out
}
