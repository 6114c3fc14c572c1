// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) plus the motivation measurements (Section 2) on the
// simulation substrate. Each runner prints the same rows/series the paper
// reports; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"
	"os"

	"repro/internal/edgenet"
	"repro/internal/fed"
	"repro/internal/obs/span"
	"repro/internal/trace"
)

// shiftFrac is the share of each device's classes and samples one
// environment shift replaces between two adaptation steps — the paper's
// "replace 50% of the local data" protocol (Fig 10/11, faults, straggler).
const shiftFrac = 0.5

// Options scales an experiment run. The defaults keep a full sweep tractable
// on a laptop; ScalePaper plus larger fleets approaches the paper's setup.
type Options struct {
	Out   io.Writer
	Seed  int64
	Scale fed.Scale

	// Fleet shape.
	Devices       int
	ProxyPerClass int

	// Online stage shape.
	Rounds          int
	DevicesPerRound int
	LocalEpochs     int
	FinetuneEpochs  int
	PretrainEpochs  int

	// Continuous adaptation (Fig 10/11).
	AdaptSteps int

	// Sub-model sweep (Fig 12).
	RandomSubModels int

	// Faults replays a seeded lossy edge-cloud link in the online-stage
	// experiments (nebula-sim -faults). Zero value = clean network.
	Faults edgenet.FaultConfig

	// Workers bounds per-round device parallelism inside every strategy
	// (nebula-sim -workers). 0 means runtime.NumCPU; every value, including
	// 1, produces bitwise-identical artifacts — see docs/PARALLEL.md.
	Workers int

	// Async switches every online-stage run to deadline-paced semi-async
	// rounds (nebula-sim -async; docs/ASYNC.md). AsyncDeadline is the
	// per-round sim-time budget in seconds (0 = auto-calibrate);
	// StalenessDecay weights late updates by decay^staleness (0 = default).
	Async          bool
	AsyncDeadline  float64
	StalenessDecay float64
	// Stragglers pins this many devices at maximum contention in the
	// straggler experiment's dynamic fleet (nebula-sim -stragglers).
	Stragglers int

	// WireCompress runs every online-stage sub-model exchange through the
	// simulated wire-format v2 codec (nebula-sim -wire; docs/PROTOCOL.md
	// "Wire format v2"): quantized, delta-encoded transfers with exact
	// encoded-size byte accounting. WireTopK sparsifies uplink deltas to
	// that coordinate fraction. The compress experiment compares clean vs compressed itself,
	// regardless of these options.
	WireCompress bool
	WireTopK     float64

	// Trace optionally receives the structured JSONL adaptation log of the
	// online-stage Nebula runs (nebula-sim -trace). Nil disables tracing.
	Trace *trace.Logger

	// Spans optionally attaches a distributed-span flight recorder to the
	// online-stage Nebula runs (nebula-sim -span-sample; docs/OBSERVABILITY.md
	// "Tracing"). Spans are write-only wall-clock telemetry: artifacts are
	// byte-identical with or without a recorder. Nil disables span tracing.
	Spans *span.Recorder

	// Verbose prints progress lines during long runs.
	Verbose bool
	// Points additionally dumps figures' raw (x, series...) columns for
	// external plotting.
	Points bool
}

// Default returns quick-profile options (minutes, not hours, for the full
// sweep).
func Default() Options {
	return Options{
		Out:             os.Stdout,
		Seed:            1,
		Scale:           fed.ScaleQuick,
		Devices:         24,
		ProxyPerClass:   40,
		Rounds:          5,
		DevicesPerRound: 8,
		LocalEpochs:     3,
		FinetuneEpochs:  6,
		PretrainEpochs:  5,
		AdaptSteps:      10,
		RandomSubModels: 14,
		Stragglers:      2,
		Verbose:         false,
	}
}

// fedConfig converts options to the online-stage config.
func (o Options) fedConfig() fed.Config {
	cfg := fed.DefaultConfig()
	cfg.Rounds = o.Rounds
	cfg.DevicesPerRound = o.DevicesPerRound
	cfg.LocalEpochs = o.LocalEpochs
	cfg.FinetuneEpochs = o.FinetuneEpochs
	cfg.Workers = o.Workers
	cfg.Async = o.Async
	cfg.RoundDeadline = o.AsyncDeadline
	cfg.StalenessDecay = o.StalenessDecay
	cfg.WireCompress = o.WireCompress
	cfg.WireTopK = o.WireTopK
	return cfg
}

// faultModel resolves the fault spec into a simulated link (nil = clean). A
// zero fault seed defaults to the run seed, so a single -seed replays both
// the experiment and its network faults.
func (o Options) faultModel() *fed.FaultModel {
	if !o.Faults.Enabled() {
		return nil
	}
	cfg := o.Faults
	if cfg.Seed == 0 {
		cfg.Seed = o.Seed
	}
	return fed.NewFaultModel(cfg)
}

func (o Options) logf(format string, args ...any) {
	if o.Verbose {
		fmt.Fprintf(o.Out, "# "+format+"\n", args...)
	}
}
