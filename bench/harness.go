package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/obs"
	"repro/internal/obs/span"
)

// runConfig is one run of one workload.
type runConfig struct {
	Seed    int64
	Seconds float64 // timed-phase budget; ignored when Ops > 0
	Ops     int     // fixed operation count (0 = run for Seconds)
	Trace   bool
	Smoke   bool // tiny sizes, for the package's own tests
	Workers int  // device fan-out / driver goroutines; 0 = min(NumCPU, 4)
	// SetupReps is how many times the workload is set up; setup_s is the
	// median and the last instance runs the timed phase.
	SetupReps int
	SpansOut  string // JSONL path for the traced pass ("" = do not write)
	// Rec is the traced pass's span recorder (nil on the untraced pass),
	// made before set-up so long-lived parts can hold it from the start.
	Rec *span.Recorder
	Log io.Writer // human-readable progress and tables
}

func (c runConfig) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// pick returns the smoke-scale value under -smoke and the full one otherwise.
func (c runConfig) pick(full, smoke int) int {
	if c.Smoke {
		return smoke
	}
	return full
}

// cloudSeed seeds what belongs to the system under test rather than to its
// input: the task's data distribution and the cloud model's initialisation
// and pre-training. -seed drives everything the system is fed — fleet
// composition, device data and hardware, sampling order, link faults, client
// budgets, proxy draws of offline_cloud. Were the cloud model re-drawn per
// seed too, which modules a device is served (and so how much work a round
// is) would swing by ±15 % from seed to seed, drowning what the benchmark is
// there to resolve.
const cloudSeed = 1

// budget bounds a timed phase: a fixed operation count, or wall seconds.
type budget struct {
	seconds float64
	ops     int
}

func (b budget) spent(sw obs.Stopwatch, done int) bool {
	if b.ops > 0 {
		return done >= b.ops
	}
	return sw.Seconds() >= b.seconds
}

// phase is what a workload reports for one timed phase.
type phase struct {
	wall   float64   // wall seconds of the phase
	opMs   []float64 // one latency sample per completed operation
	failed int       // operations that ended in an error
	units  float64   // throughput units landed (see README: updates, exchanges, samples)
	lanes  int       // sequential driver lanes (1 unless the workload is concurrent)
}

// instance is one set-up workload.
type instance interface {
	// run executes operations until the budget is spent. rec is nil on the
	// untraced pass.
	run(b budget, rec *span.Recorder) (phase, error)
	// finish runs the untimed correctness checks. On the traced pass (ts
	// non-nil) it also returns the per-layer values the workload measured
	// itself over its last phase.
	finish(ts *traceSummary) (map[string]float64, error)
	// probeInputs hands the layer probes the workload's own model and data.
	probeInputs() probeInputs
	close()
}

// usage is the process-level accounting around a phase.
type usage struct {
	cpuS      float64
	allocB    uint64
	mallocs   uint64
	gcCycles  uint32
	gcPauseNs uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{
		cpuS:      tv(ru.Utime) + tv(ru.Stime),
		allocB:    ms.TotalAlloc,
		mallocs:   ms.Mallocs,
		gcCycles:  ms.NumGC,
		gcPauseNs: ms.PauseTotalNs,
	}
}

func (u usage) since(u0 usage) usage {
	return usage{
		cpuS:      u.cpuS - u0.cpuS,
		allocB:    u.allocB - u0.allocB,
		mallocs:   u.mallocs - u0.mallocs,
		gcCycles:  u.gcCycles - u0.gcCycles,
		gcPauseNs: u.gcPauseNs - u0.gcPauseNs,
	}
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// report is the machine-readable result of one run: the last line of stdout.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload sets the workload up, runs the timed phase, checks the outputs
// and assembles the report: the end-to-end metrics on the untraced pass, the
// per-layer metrics on the traced one.
func runWorkload(w *workloadDef, cfg runConfig) (report, error) {
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	reps := cfg.SetupReps
	if reps < 1 {
		reps = 1
	}
	if cfg.Trace {
		// Sample rate 1, and room for every span of the longest run.
		cfg.Rec = span.NewRecorder(1 << 21)
		cfg.Rec.SetSampler(cfg.Seed, 1)
	}
	var inst instance
	var setupS []float64
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
		}
		sw := obs.StartTimer()
		var err error
		if inst, err = w.setup(cfg); err != nil {
			return report{}, fmt.Errorf("%s: setup: %w", w.Name, err)
		}
		setupS = append(setupS, sw.Seconds())
	}
	defer inst.close()
	fmt.Fprintf(cfg.Log, "%s: set up %d× (median %.3f s), seed %d, workers %d\n",
		w.Name, reps, median(setupS), cfg.Seed, cfg.workers())

	full := budget{seconds: cfg.Seconds, ops: cfg.Ops}
	if !cfg.Trace {
		runtime.GC()
		u0 := readUsage()
		ph, err := inst.run(full, nil)
		if err != nil {
			return report{}, fmt.Errorf("%s: %w", w.Name, err)
		}
		u := readUsage().since(u0)
		if _, err := inst.finish(nil); err != nil {
			return report{}, fmt.Errorf("%s: check failed: %w", w.Name, err)
		}
		return endToEndReport(ph, u, median(setupS))
	}

	// Traced pass: a quarter of the budget runs untraced first, so the
	// tracing overhead is read off one process under one set of conditions.
	ref := budget{seconds: cfg.Seconds / 4, ops: cfg.Ops / 4}
	if cfg.Ops > 0 && ref.ops < 1 {
		ref.ops = 1
	}
	traced := budget{seconds: cfg.Seconds - ref.seconds, ops: cfg.Ops - ref.ops}
	if cfg.Ops > 0 && traced.ops < 1 {
		traced.ops = 1
	}
	refPh, err := inst.run(ref, nil)
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	rec := cfg.Rec
	runtime.GC()
	u0 := readUsage()
	ph, err := inst.run(traced, rec)
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	u := readUsage().since(u0)
	spans := rec.Snapshot()
	if cfg.SpansOut != "" {
		if err := writeSpans(cfg.SpansOut, spans); err != nil {
			return report{}, err
		}
	}
	ts := summarizeSpans(spans)
	layer, err := inst.finish(&ts)
	if err != nil {
		return report{}, fmt.Errorf("%s: check failed: %w", w.Name, err)
	}
	// Probe values first; what the workload measured itself takes precedence
	// (offline_cloud's own stage times over the probe's).
	vals := runProbes(inst.probeInputs(), cfg)
	for _, m := range perLayer {
		if v, ok := layer[m.Name]; ok {
			vals[m.Name] = v
		}
	}
	nOps := float64(len(ph.opMs))
	vals["op_ms_p90"] = percentile(ph.opMs, 90)
	vals["rt.gc_cycles"] = float64(u.gcCycles)
	vals["rt.gc_pause_ms"] = float64(u.gcPauseNs) / 1e6
	vals["rt.allocs_per_op"] = float64(u.mallocs) / math.Max(nOps, 1)
	vals["quality.failed_ops_ratio"] = float64(ph.failed) / math.Max(nOps+float64(ph.failed), 1)
	vals["trace.coverage"] = ts.coverage(ph.wall, ph.lanes)
	if p := median(refPh.opMs); p > 0 {
		vals["trace.overhead_pct"] = 100 * (median(ph.opMs)/p - 1)
	}
	vals["trace.spans_dropped"] = float64(rec.Dropped())
	if rec.Dropped() > 0 {
		return report{}, fmt.Errorf("%s: span recorder dropped %d spans; raise its capacity", w.Name, rec.Dropped())
	}
	printTraceTable(cfg.Log, w.Name, ts, ph)

	rep := report{Correct: true, Attempted: len(ph.opMs) + ph.failed, Failed: ph.failed, Metrics: map[string]value{}}
	for _, m := range perLayer {
		v := vals[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return report{}, fmt.Errorf("%s: per-layer metric %s is not finite", w.Name, m.Name)
		}
		rep.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	return rep, nil
}

func endToEndReport(ph phase, u usage, setupS float64) (report, error) {
	n := float64(len(ph.opMs))
	if n == 0 || ph.wall <= 0 {
		return report{}, fmt.Errorf("timed phase completed no operation")
	}
	vals := map[string]float64{
		"setup_s":          setupS,
		"op_ms_p50":        median(ph.opMs),
		"throughput_per_s": ph.units / ph.wall,
		"cpu_ms_per_op":    1e3 * u.cpuS / n,
		"alloc_kb_per_op":  float64(u.allocB) / 1024 / n,
		"peak_rss_mb":      peakRSSMiB(),
	}
	rep := report{Correct: true, Attempted: len(ph.opMs) + ph.failed, Failed: ph.failed, Metrics: map[string]value{}}
	for _, m := range endToEnd {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return report{}, fmt.Errorf("end-to-end metric %s has no positive finite value (%v)", m.Name, v)
		}
		rep.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	return rep, nil
}

func writeSpans(path string, spans []span.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := span.WriteJSON(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// printTraceTable prints where the traced phase's time went, by span kind.
func printTraceTable(w io.Writer, name string, ts traceSummary, ph phase) {
	total := ph.wall * float64(ph.lanes)
	fmt.Fprintf(w, "%s: traced phase %.3f s wall × %d lane(s), %d ops; self time by span kind:\n",
		name, ph.wall, ph.lanes, len(ph.opMs))
	for _, k := range sortedKinds(ts.selfByKind) {
		fmt.Fprintf(w, "  %-24s %9.3f s self %9.3f s total %8d spans\n",
			k, ts.selfByKind[k], ts.durByKind[k], ts.countByKind[k])
	}
	fmt.Fprintf(w, "  coverage %.4f; unattributed remainder %.3f s of %.3f s\n",
		ts.coverage(ph.wall, ph.lanes), total-ts.attributed, total)
}
