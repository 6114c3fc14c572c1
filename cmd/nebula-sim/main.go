// Command nebula-sim runs the paper's experiments on the simulation
// platform and prints each table/figure as text.
//
// Usage:
//
//	nebula-sim -list
//	nebula-sim -exp table1
//	nebula-sim -exp all -devices 60 -rounds 10 -scale paper -v
//	nebula-sim -exp table1 -seed 7 -seed-audit
//	nebula-sim -exp faults -faults drop=0.25,delay=20ms,reset=0.05 -seed 7 -seed-audit
//	nebula-sim -exp fig10 -workers 1 -trace run.jsonl
//	nebula-sim -exp straggler -seed 7 -seed-audit
//	nebula-sim -exp fig10 -async -staleness-decay 0.5 -trace run.jsonl
//	nebula-sim -exp straggler -faults drop=0.2 -wire -span-sample 1 -spans spans.jsonl -admin-addr 127.0.0.1:0
//
// -async switches every online-stage run to deadline-paced semi-async
// rounds (docs/ASYNC.md); the straggler experiment compares both modes on
// one seeded dynamic fleet regardless of the flag.
//
// -seed-audit runs the experiment twice with the same -seed and fails (exit
// 1) unless both passes produce byte-identical output — the dynamic
// counterpart of nebula-lint's seedrand check: every source of randomness in
// internal/experiments must thread from the single config seed.
//
// -workers bounds per-round device parallelism (default: all CPUs).
// Artifacts — tables, figures, and the -trace log — are bitwise identical
// for every worker count, including 1 (docs/PARALLEL.md); the differential
// gate in ci.sh holds the repo to that.
//
// -trace writes the structured JSONL adaptation log of the online-stage
// Nebula runs. The log carries no wall-clock timestamps, so two runs with
// the same seed (at any -workers values) byte-compare equal. A trace write
// failure is a hard error (exit 1), never a silent truncation.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/edgenet"
	"repro/internal/experiments"
	"repro/internal/fed"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/trace"
)

func main() {
	opt := experiments.Default()
	var (
		exp       = flag.String("exp", "", "experiment id (see -list) or 'all'")
		list      = flag.Bool("list", false, "list available experiments")
		scale     = flag.String("scale", "quick", "experiment scale: quick | paper")
		seedAudit = flag.Bool("seed-audit", false, "run the experiment twice with the same seed and verify byte-identical output")
		faults    = flag.String("faults", "", "inject a seeded lossy link under every Nebula an online-stage experiment adapts (the baselines have no simulated link and stay clean), e.g. 'drop=0.25,delay=20ms,reset=0.05' (seed=N to replay a specific fault stream; defaults to -seed)")
		tracePath = flag.String("trace", "", "write the online-stage adaptation log (JSON lines) to this file")

		spansPath  = flag.String("spans", "", "write the distributed span capture (JSON lines, read by cmd/nebula-trace) to this file; implies -span-sample 1 unless set")
		spanSample = flag.Float64("span-sample", 0, "sample this fraction of round traces into the span flight recorder (0 = tracing off, 1 = all); the decision is a pure function of (-seed, round), so artifacts stay byte-identical at any rate")

		adminAddr   = flag.String("admin-addr", "", "serve /metrics, /statusz, /healthz and /debug/pprof/ on this address (use 127.0.0.1:0 for an ephemeral port; the bound address is printed to stderr)")
		adminLinger = flag.Duration("admin-linger", 0, "keep the admin server up this long after the run finishes so it can be scraped at quiescence")
	)
	flag.IntVar(&opt.Workers, "workers", runtime.NumCPU(), "per-round device parallelism; artifacts are bitwise identical for every value, including 1")
	flag.Int64Var(&opt.Seed, "seed", opt.Seed, "random seed")
	flag.IntVar(&opt.Devices, "devices", opt.Devices, "fleet size")
	flag.IntVar(&opt.ProxyPerClass, "proxy", opt.ProxyPerClass, "proxy samples per class for cloud pre-training")
	flag.IntVar(&opt.Rounds, "rounds", opt.Rounds, "communication rounds per adaptation step")
	flag.IntVar(&opt.DevicesPerRound, "per-round", opt.DevicesPerRound, "devices sampled per round")
	flag.IntVar(&opt.LocalEpochs, "local-epochs", opt.LocalEpochs, "local epochs per round")
	flag.IntVar(&opt.FinetuneEpochs, "finetune-epochs", opt.FinetuneEpochs, "on-device fine-tuning epochs")
	flag.IntVar(&opt.PretrainEpochs, "pretrain-epochs", opt.PretrainEpochs, "cloud pre-training epochs on proxy data")
	flag.IntVar(&opt.AdaptSteps, "steps", opt.AdaptSteps, "adaptation steps for fig10/fig11")
	flag.IntVar(&opt.RandomSubModels, "submodels", opt.RandomSubModels, "random sub-models sampled for fig12")
	flag.BoolVar(&opt.Async, "async", false, "deadline-paced semi-async rounds for online-stage experiments (docs/ASYNC.md)")
	flag.Float64Var(&opt.RoundDeadline, "async-deadline", 0, "per-round sim-time deadline in seconds for -async (0 = auto-calibrate to 2x the first round's median device time)")
	flag.Float64Var(&opt.StalenessDecay, "staleness-decay", 0, "weight multiplier per round of staleness for late updates in -async (0 = default 0.5)")
	flag.IntVar(&opt.Stragglers, "stragglers", opt.Stragglers, "devices pinned at maximum contention in the straggler experiment's dynamic fleet")
	flag.BoolVar(&opt.WireCompress, "wire", false, "run online-stage sub-model exchanges through the wire-format v2 codec (docs/PROTOCOL.md): delta-quantized transfers with exact encoded-size accounting")
	flag.Float64Var(&opt.WireTopK, "wire-topk", 0, "keep only this fraction of uplink delta coordinates under -wire (0 = dense)")
	flag.BoolVar(&opt.Verbose, "v", false, "print progress lines")
	flag.BoolVar(&opt.Points, "points", false, "also dump figures' raw data columns")
	flag.Parse()

	if *list {
		experiments.WriteIndex(os.Stdout)
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "nebula-sim: -exp is required (or -list)")
		flag.Usage()
		os.Exit(2)
	}
	sc, err := fed.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nebula-sim:", err)
		os.Exit(2)
	}
	opt.Scale = sc
	if *faults != "" {
		cfg, err := edgenet.ParseFaultSpec(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nebula-sim:", err)
			os.Exit(2)
		}
		if cfg.BandwidthBps > 0 {
			// The simulated link's speed is device.Profile.TransferTime;
			// fed.FaultModel replays loss and delay only, so a bw= cap would
			// be accepted and never charged.
			fmt.Fprintln(os.Stderr, "nebula-sim: -faults bw= has no effect on the simulated link (its bandwidth is the device profile's); bw= throttles a real connection — use nebula-edge -faults")
			os.Exit(2)
		}
		opt.Faults = cfg
	}
	opt.Out = os.Stdout
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nebula-sim:", err)
			os.Exit(1)
		}
		traceFile = f
		opt.Trace = trace.New(f)
	}

	// Span tracing is the same kind of pure observer as the admin plane:
	// write-only wall-clock telemetry behind a deterministic keyed sampler,
	// so attaching a recorder leaves every artifact byte-identical (the
	// differential tests in internal/fed pin this).
	rate := *spanSample
	if *spansPath != "" && rate == 0 {
		rate = 1
	}
	var spans *span.Recorder
	if rate > 0 {
		spans = span.NewRecorder(span.DefaultCapacity)
		spans.SetSampler(opt.Seed, rate)
		opt.Spans = spans
	}

	// The admin plane is pure observer: registries are write-only telemetry
	// and the HTTP goroutines never touch simulation state, so artifacts are
	// byte-identical with or without -admin-addr (ci.sh enforces this by
	// running the seed-audit gate with the admin server enabled).
	var admin *obs.Admin
	if *adminAddr != "" {
		admin = obs.NewAdmin(obs.Default())
		admin.SetState("starting")
		admin.AddSection("round health", fed.RoundHealthSection(spans))
		if spans != nil {
			admin.AddHandler("/spans", spans)
		}
		bound, err := admin.Listen(*adminAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nebula-sim: admin:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "admin: serving on http://%s\n", bound)
		admin.SetState("running")
	}

	start := obs.StartTimer()
	if *seedAudit {
		if err := runSeedAudit(*exp, opt); err != nil {
			fmt.Fprintln(os.Stderr, "nebula-sim:", err)
			os.Exit(1)
		}
	} else if err := experiments.Run(*exp, opt); err != nil {
		fmt.Fprintln(os.Stderr, "nebula-sim:", err)
		os.Exit(1)
	}
	if traceFile != nil {
		// A dropped trace event is silent data corruption downstream
		// (nebula-trace would understate the run); fail loudly instead.
		if err := opt.Trace.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "nebula-sim: trace log:", err)
			os.Exit(1)
		}
		if err := traceFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "nebula-sim: trace log:", err)
			os.Exit(1)
		}
	}
	if *spansPath != "" {
		// Like the trace log: a torn span capture silently understates the
		// run to nebula-trace, so any write failure is a hard error.
		if err := writeSpans(*spansPath, spans); err != nil {
			fmt.Fprintln(os.Stderr, "nebula-sim: span capture:", err)
			os.Exit(1)
		}
	}
	if opt.Verbose {
		fmt.Fprintf(os.Stderr, "done in %s\n", start.Elapsed().Round(time.Millisecond))
	}
	if admin != nil {
		// All experiment work is finished: every counter and gauge is
		// final, and /metrics is byte-stable scrape to scrape.
		admin.SetState("quiescent")
		if *adminLinger > 0 {
			time.Sleep(*adminLinger)
		}
		_ = admin.Close()
	}
}

// writeSpans dumps the flight recorder as JSON lines to path.
func writeSpans(path string, rec *span.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// runSeedAudit executes the experiment twice with identical options and
// compares the rendered tables/figures byte for byte. Any divergence means
// some code path draws randomness outside the config seed (the bug class
// nebula-lint's seedrand check flags statically).
func runSeedAudit(exp string, opt experiments.Options) error {
	verbose := opt.Verbose
	opt.Verbose = false // progress lines carry timings; only audit the artifacts
	var first, second bytes.Buffer
	for pass, buf := range []*bytes.Buffer{&first, &second} {
		opt.Out = buf
		if verbose {
			fmt.Fprintf(os.Stderr, "seed-audit: pass %d (seed %d)\n", pass+1, opt.Seed)
		}
		if err := experiments.Run(exp, opt); err != nil {
			return fmt.Errorf("seed-audit pass %d: %w", pass+1, err)
		}
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		fmt.Fprintf(os.Stderr, "seed-audit: FAIL — output diverged between passes (%d vs %d bytes)\n",
			first.Len(), second.Len())
		return fmt.Errorf("experiment %q is not deterministic under seed %d", exp, opt.Seed)
	}
	// Print the (verified) artifact once so the flag composes with normal use.
	if _, err := os.Stdout.Write(first.Bytes()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "seed-audit: OK — %d bytes identical across two passes of %q (seed %d)\n",
		first.Len(), exp, opt.Seed)
	return nil
}
