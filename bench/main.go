// Command bench is the repository's end-to-end, layer-attributed benchmark.
//
// One workload, one pass, one process (what the driver runs):
//
//	go run -C bench . --workload sim_cnn_sync --seed 1 --seconds 10 --trace 0
//
// prints a table and, as the last line of stdout, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). It
// exits non-zero when a correctness check fails.
//
// Without --workload it runs the whole suite, each workload in a fresh
// process: `go run -C bench .` (untraced), `-trace 1` (per-layer table),
// `-repeat N` (noise band per metric), `-check-determinism`, `-list`.
// README.md is the catalogue of workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tensor"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// setupReps is how many times a run sets its workload up; setup_s is the
// median, which keeps one slow first set-up (cold caches) out of the metric.
const setupReps = 3

type options struct {
	workload    string
	seed        int64
	seconds     float64
	ops         int
	trace       int
	smoke       bool
	repeat      int
	list        bool
	determinism bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: the whole suite, one process each)")
	flag.Int64Var(&o.seed, "seed", 1, "the only source of randomness: same seed, same inputs")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "wall seconds of the timed phase")
	flag.IntVar(&o.ops, "ops", 0, "run exactly this many operations instead of -seconds (counts then repeat exactly)")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes (what the package's tests run)")
	flag.IntVar(&o.repeat, "repeat", 0, "suite: run the untraced suite N times (another seed each) and print median, quartiles and spread per metric")
	flag.BoolVar(&o.list, "list", false, "print workload and metric names and exit")
	flag.BoolVar(&o.determinism, "check-determinism", false, "check that the sim workloads' counts depend on the seed and on nothing else")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if o.trace != 0 && o.trace != 1 {
		fatal(fmt.Errorf("-trace takes 0 or 1, got %d", o.trace))
	}

	var err error
	switch {
	case o.list:
		printList(os.Stdout)
	case o.determinism:
		err = checkDeterminism(os.Stdout, o)
	case o.workload != "":
		err = runOne(os.Stdout, o)
	default:
		err = runSuite(os.Stdout, o)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func printList(w io.Writer) {
	for _, wl := range workloads {
		fmt.Fprintf(w, "workload %s\n", wl.Name)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "end_to_end %s %s %s %g\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "per_layer %s %s %s\n", m.Name, m.Unit, m.Better)
	}
}

func (o options) runConfig(log io.Writer) runConfig {
	cfg := runConfig{
		Seed: o.seed, Seconds: o.seconds, Ops: o.ops, Trace: o.trace == 1, Smoke: o.smoke,
		SetupReps: setupReps, Log: log,
	}
	if cfg.Trace {
		cfg.SpansOut = filepath.Join(".bench_out", "spans-"+o.workload+".jsonl")
	}
	return cfg
}

// runOne is the driver entry: one workload, one pass, result as the last
// line of stdout.
func runOne(w io.Writer, o options) error {
	wl := workloadByName(o.workload)
	if wl == nil {
		return fmt.Errorf("unknown workload %q (see -list)", o.workload)
	}
	rep, err := runWorkload(wl, o.runConfig(w))
	if err != nil {
		return err
	}
	printReport(w, wl.Name, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printReport prints every metric of a report by name, in sorted order.
func printReport(w io.Writer, name string, rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: %d operations attempted, %d failed, outputs correct: %v\n", name, rep.Attempted, rep.Failed, rep.Correct)
	for _, n := range names {
		fmt.Fprintf(w, "  %-42s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
}

// runChild runs one workload pass in a fresh process of this same binary. It
// returns the result parsed off the last line of the child's stdout, and the
// tables the child printed before it.
func runChild(o options, workload string, seed int64) (report, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, "", err
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-ops", strconv.Itoa(o.ops),
		"-trace", strconv.Itoa(o.trace),
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return report{}, "", fmt.Errorf("%s (seed %d): %w", workload, seed, err)
	}
	tables, last, _ := strings.Cut(strings.TrimRight(string(out), "\n"), "\n{")
	var rep report
	if err := json.Unmarshal([]byte("{"+last), &rep); err != nil {
		return report{}, "", fmt.Errorf("%s (seed %d): result line: %w", workload, seed, err)
	}
	if !rep.Correct || rep.Failed > 0 {
		return report{}, "", fmt.Errorf("%s (seed %d): correct=%v failed=%d", workload, seed, rep.Correct, rep.Failed)
	}
	return rep, tables, nil
}

// runSuite runs every workload in a fresh process each. One pass relays each
// child's tables; -repeat prints the spread over N passes at N seeds instead.
func runSuite(w io.Writer, o options) error {
	if o.repeat > 0 && o.trace == 1 {
		return errors.New("-repeat measures the end-to-end metrics; run it with -trace 0")
	}
	printProvenance(w, o)
	flagged := 0
	for _, wl := range workloads {
		if o.repeat == 0 {
			_, tables, err := runChild(o, wl.Name, o.seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, tables)
			continue
		}
		series := map[string][]float64{}
		for p := 0; p < o.repeat; p++ {
			rep, _, err := runChild(o, wl.Name, o.seed+int64(p))
			if err != nil {
				return err
			}
			for _, m := range endToEnd {
				series[m.Name] = append(series[m.Name], rep.Metrics[m.Name].Value)
			}
		}
		fmt.Fprintf(w, "%s\n", wl.Name)
		for _, m := range endToEnd {
			sp := spreadOf(series[m.Name])
			mark := ""
			if m.Name != "setup_s" && sp.Rel > m.Bound {
				mark = "  << spread exceeds bound"
				flagged++
			}
			fmt.Fprintf(w, "  %-20s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.2f%%  bound %4.0f%%  %s%s\n",
				m.Name, sp.Median, sp.Q1, sp.Q3, 100*sp.Rel, 100*m.Bound, m.Unit, mark)
		}
	}
	if flagged > 0 {
		fmt.Fprintf(w, "%d metric/workload pairs spread wider than their bound over %d passes\n", flagged, o.repeat)
	}
	return nil
}

// printProvenance states what the numbers were measured on.
func printProvenance(w io.Writer, o options) {
	fmt.Fprintf(w, "bench: %s %s/%s, cpu %s, kernel %s, GOMAXPROCS %d, nproc %d, workers %d, seed %d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, tensor.CPUFeatures(), tensor.KernelMode(),
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runConfig{}.workers(), o.seed)
}

// checkDeterminism runs the first ten rounds of both sim workloads at one
// worker and at several, twice at the same seed and once at another, and
// compares the exact counts: they must be bit-identical for one seed whatever
// the worker count, and must move with the seed (which proves the seed
// really reaches the generators).
func checkDeterminism(w io.Writer, o options) error {
	many := runConfig{}.workers()
	if many < 2 {
		many = 2
	}
	for _, name := range []string{"sim_cnn_sync", "sim_mlp_wire_async"} {
		wl := workloadByName(name)
		fp := func(seed int64, workers int) (string, error) {
			inst, err := wl.setup(runConfig{Seed: seed, Workers: workers, Smoke: o.smoke, Log: io.Discard})
			if err != nil {
				return "", err
			}
			defer inst.close()
			sim := inst.(*simInstance)
			if _, err := sim.run(budget{ops: 10}, nil); err != nil {
				return "", err
			}
			return sim.fingerprint()
		}
		a, err := fp(o.seed, 1)
		if err != nil {
			return err
		}
		for _, workers := range []int{many, many} {
			b, err := fp(o.seed, workers)
			if err != nil {
				return err
			}
			if a != b {
				return fmt.Errorf("%s: seed %d differs between 1 and %d workers:\n  %s\n  %s", name, o.seed, workers, a, b)
			}
		}
		c, err := fp(o.seed+1, many)
		if err != nil {
			return err
		}
		if a == c {
			return fmt.Errorf("%s: seeds %d and %d give identical counts; the seed does not reach the generators", name, o.seed, o.seed+1)
		}
		fmt.Fprintf(w, "%s: deterministic (1 vs %d workers, repeated), seed-sensitive\n  %s\n", name, many, a)
	}
	return nil
}

// fingerprint renders the exact, seed-determined outputs of a sim run:
// the cost ledger, the fed counts and the final accuracy, floats by bits.
func (s *simInstance) fingerprint() (string, error) {
	if _, err := s.finish(nil); err != nil {
		return "", err
	}
	c := s.counters()
	acc := s.nb.LocalAccuracy(s.clients())
	return fmt.Sprintf("rounds=%d up=%d down=%d sim=%016x landed=%d late=%d lost=%d dropped=%d pending=%d acc=%016x",
		c.costs.Rounds, c.costs.BytesUp, c.costs.BytesDown, math.Float64bits(c.costs.SimTime),
		int(c.landed), int(c.late), c.lost, int(c.droppedPending), s.nb.PendingStragglers(), math.Float64bits(acc)), nil
}
