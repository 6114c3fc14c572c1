// Command nebula-trace analyzes a run's telemetry: the sim-time adaptation
// log (internal/trace; nebula-sim -trace) or the wall-clock span capture
// (internal/obs/span; nebula-sim -spans, or the /spans admin endpoint). The
// first record tells them apart: a trace event always carries seq, a span
// always carries trace and id.
//
// Usage:
//
//	nebula-trace run.jsonl                # rounds, traffic, simulated time
//	nebula-trace -metrics run.jsonl       # the replayed registry, Prometheus text
//	nebula-trace spans.jsonl              # per-round critical paths, self-time by kind
//	nebula-trace -check spans.jsonl       # parent links + one summary line
//	nebula-trace -waterfall -top 2 spans.jsonl
//	curl -s http://127.0.0.1:PORT/spans | nebula-trace -
//
// -metrics replays the log through the per-event step the live simulator's
// one recording path applies (internal/fed), so its deterministic families
// byte-match a scrape of the run's /metrics (docs/OBSERVABILITY.md). -check
// validates that every non-root span's parent is in its trace and prints one
// machine-greppable line (traces= spans= roots= round_roots=) that ci.sh
// gates on; a capture from a flight recorder that wrapped can legitimately
// fail it. A flag that does not fit the stream exits 2. Input that starts
// with neither record, empty input included, is read as the stream the flags
// name: a span capture under -check, -waterfall or -top, else a trace log.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/trace"
)

func main() {
	metricsMode := flag.Bool("metrics", false, "trace log: print the replayed registry in Prometheus text format instead of the human summary")
	check := flag.Bool("check", false, "span capture: validate parent links and print a summary line (exit 1 on orphans)")
	waterfall := flag.Bool("waterfall", false, "span capture: render each trace as an indented timing tree")
	top := flag.Int("top", 0, "span capture: with -waterfall, show only the N traces with the most spans (0 = all)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: nebula-trace [-metrics | -check | -waterfall [-top N]] <file.jsonl | ->")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	var r io.Reader = os.Stdin
	if flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fail(1, err)
		}
		defer f.Close()
		r = f
	}
	data, err := io.ReadAll(r)
	if err != nil {
		fail(1, err)
	}
	spanFlag := *check || *waterfall || *top != 0
	if isSpanCapture(data, spanFlag) {
		if *metricsMode {
			fail(2, "-metrics reads a trace log, and the input is a span capture")
		}
		spans, err := span.ReadJSON(bytes.NewReader(data))
		if err != nil {
			fail(1, err)
		}
		spanViews(spans, *check, *waterfall, *top)
		return
	}
	if spanFlag {
		fail(2, "-check, -waterfall and -top read a span capture, and the input is a trace log")
	}
	events, err := trace.Read(bytes.NewReader(data))
	if err != nil {
		fail(1, err)
	}
	// A gap in the sequence numbers means the producer dropped events (e.g.
	// a failed write): the summary below would silently understate the run,
	// so refuse to summarize a torn log.
	if err := trace.CheckSeq(events); err != nil {
		fail(1, err)
	}
	if *metricsMode {
		reg := fed.ReplayTrace(events)
		if err := obs.WritePrometheus(os.Stdout, reg.Snapshot()); err != nil {
			fail(1, err)
		}
		return
	}
	s := trace.Summarize(events)
	fmt.Printf("events:       %d\n", len(events))
	fmt.Printf("rounds:       %d\n", s.Rounds)
	fmt.Printf("traffic:      ↓%s ↑%s\n", metrics.FmtBytes(s.BytesDown), metrics.FmtBytes(s.BytesUp))
	fmt.Printf("sim time:     %s (slowest client per round)\n", metrics.FmtDur(s.SimTime))
	// Per-client participation histogram.
	perClient := map[int]int{}
	for _, e := range events {
		if e.Kind == trace.KindClientUpdate {
			perClient[e.Client]++
		}
	}
	if len(perClient) > 0 {
		fmt.Printf("participants: %d distinct devices\n", len(perClient))
	}
}

// isSpanCapture tells the stream by its first record: a span carries trace
// and id, a trace event seq. An input whose first record is neither (empty or
// malformed input included) is a span capture if asFlags, else a trace log;
// the reader then reports what is wrong with it.
func isSpanCapture(data []byte, asFlags bool) bool {
	var first map[string]json.RawMessage
	if json.NewDecoder(bytes.NewReader(data)).Decode(&first) != nil {
		return asFlags
	}
	_, seq := first["seq"]
	_, tr := first["trace"]
	_, id := first["id"]
	if seq == (tr && id) {
		return asFlags
	}
	return !seq
}

// fail reports on stderr and exits with code.
func fail(code int, msg ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"nebula-trace:"}, msg...)...)
	os.Exit(code)
}
