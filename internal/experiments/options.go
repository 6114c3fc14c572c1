// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) plus the motivation measurements (Section 2) on the
// simulation substrate. Each runner prints the same rows/series the paper
// reports; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"
	"math"
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
	// Config is the config every experiment starts from: rounds, sampled
	// devices, epochs (cloud pre-training, local, fine-tuning), Workers
	// (nebula-sim -workers; every value, including 1, produces
	// bitwise-identical artifacts — see docs/PARALLEL.md), the semi-async
	// engine (-async, -async-deadline, -staleness-decay; docs/ASYNC.md) and
	// the simulated wire codec (-wire, -wire-topk; docs/PROTOCOL.md "Wire
	// format v2"). The compress experiment compares clean vs compressed
	// itself, regardless of the wire fields.
	fed.Config

	Out   io.Writer
	Seed  int64
	Scale fed.Scale

	// Fleet shape.
	Devices       int
	ProxyPerClass int

	// Continuous adaptation (Fig 10/11).
	AdaptSteps int

	// Sub-model sweep (Fig 12).
	RandomSubModels int

	// Faults replays a seeded lossy edge-cloud link under every Nebula an
	// online-stage experiment adapts (nebula-sim -faults); the baselines have
	// no simulated link. Zero value = clean network.
	Faults edgenet.FaultConfig

	// Stragglers pins this many devices at maximum contention in the
	// straggler experiment's dynamic fleet (nebula-sim -stragglers).
	Stragglers int

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
	cfg := fed.DefaultConfig()
	cfg.Rounds = 5
	cfg.DevicesPerRound = 8
	cfg.LocalEpochs = 3
	cfg.FinetuneEpochs = 6
	return Options{
		Config:          cfg,
		Out:             os.Stdout,
		Seed:            1,
		Scale:           fed.ScaleQuick,
		Devices:         24,
		ProxyPerClass:   40,
		AdaptSteps:      10,
		RandomSubModels: 14,
		Stragglers:      2,
	}
}

// validate rejects round-engine settings outside their documented range
// before any work: a negative or NaN deadline would run the sim clock
// backwards, and a decay outside [0, 1] (0 = default) would weigh late
// updates above on-time ones.
func (o Options) validate() error {
	if d := o.RoundDeadline; d < 0 || math.IsNaN(d) {
		return fmt.Errorf("round deadline (-async-deadline) %v: want a non-negative number of seconds (0 = auto-calibrate)", d)
	}
	if d := o.StalenessDecay; !(d >= 0 && d <= 1) {
		return fmt.Errorf("staleness decay (-staleness-decay) %v: want a value in (0, 1] (0 = default)", d)
	}
	return nil
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

// newNebula builds a Nebula that an online-stage experiment adapts, on the
// experiment's simulated link (faultModel; clean without -faults).
func (o Options) newNebula(task *fed.Task, cfg fed.Config) *fed.Nebula {
	nb := fed.NewNebula(task, cfg)
	nb.Faults = o.faultModel()
	return nb
}

func (o Options) logf(format string, args ...any) {
	if o.Verbose {
		fmt.Fprintf(o.Out, "# "+format+"\n", args...)
	}
}
