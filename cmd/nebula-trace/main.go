// Command nebula-trace summarizes a structured adaptation log (JSON lines
// produced by internal/trace): rounds, per-way traffic and simulated time.
//
// Usage:
//
//	nebula-trace run.jsonl
//	... | nebula-trace -
//	nebula-trace -metrics run.jsonl
//
// -metrics replays the log through the per-event step the live simulator's
// one recording path applies (internal/fed) and prints the resulting registry
// in Prometheus text exposition format — the offline counterpart of scraping
// a live run's /metrics endpoint. Replaying a trace and scraping the run that
// produced it yield identical deterministic families (docs/OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	metricsMode := flag.Bool("metrics", false, "print the replayed registry in Prometheus text format instead of the human summary")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: nebula-trace [-metrics] <file.jsonl | ->")
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
			fmt.Fprintln(os.Stderr, "nebula-trace:", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	events, err := trace.Read(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nebula-trace:", err)
		os.Exit(1)
	}
	// A gap in the sequence numbers means the producer dropped events (e.g.
	// a failed write): the summary below would silently understate the run,
	// so refuse to summarize a torn log.
	if err := trace.CheckSeq(events); err != nil {
		fmt.Fprintln(os.Stderr, "nebula-trace:", err)
		os.Exit(1)
	}
	if *metricsMode {
		reg := fed.ReplayTrace(events)
		if err := obs.WritePrometheus(os.Stdout, reg.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "nebula-trace:", err)
			os.Exit(1)
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
