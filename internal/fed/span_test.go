package fed

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/nn"
	"repro/internal/obs/span"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Differential gates for distributed span tracing (docs/OBSERVABILITY.md
// "Tracing"): spans are write-only wall-clock telemetry, so attaching a
// recorder — at full sampling — must leave every artifact byte-identical,
// across sync and async engines and across worker counts. Same shape as the
// registry two-pass differential in obs_test.go.

// runNebulaSpans runs one small seeded adaptation with an optional span
// recorder attached and returns the trace log, costs, and final parameters.
func runNebulaSpans(t *testing.T, rec *span.Recorder, async bool, workers int) ([]byte, Costs, []float32) {
	t.Helper()
	rng := tensor.NewRNG(77)
	task := HARTask(78, ScaleQuick)
	cfg := tinyCfg()
	cfg.Rounds = 3
	cfg.DevicesPerRound = 4
	cfg.Workers = workers
	cfg.Async = async
	nb := NewNebula(task, cfg)
	nb.TrainCfg.Epochs = 1
	nb.Spans = rec
	var buf bytes.Buffer
	nb.Trace = trace.New(&buf)
	nb.Pretrain(rng, proxyFor(rng, task, 10))
	clients := harFleet(rng, task, 6, 2)
	nb.Adapt(rng, clients)
	return buf.Bytes(), nb.Costs(), nn.FlattenVector(nb.Model.Params(), nil)
}

func TestSpansAreArtifactNeutral(t *testing.T) {
	for _, async := range []bool{false, true} {
		rec := span.NewRecorder(1 << 12)
		rec.SetSampler(77, 1)
		onTrace, onCosts, onParams := runNebulaSpans(t, rec, async, 2)
		offTrace, offCosts, offParams := runNebulaSpans(t, nil, async, 2)
		if !bytes.Equal(onTrace, offTrace) {
			t.Fatalf("async=%v: trace log differs with tracing on vs off", async)
		}
		if !reflect.DeepEqual(onCosts, offCosts) {
			t.Fatalf("async=%v: costs differ with tracing on vs off: %+v vs %+v", async, onCosts, offCosts)
		}
		if !reflect.DeepEqual(onParams, offParams) {
			t.Fatalf("async=%v: model parameters differ with tracing on vs off", async)
		}

		// The neutral run still traced: one root span per round, device
		// children parented correctly, nothing orphaned.
		spans := rec.Snapshot()
		if err := span.ValidateParents(spans); err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		roots, devices := 0, 0
		for _, s := range spans {
			switch {
			case s.Kind == "fed.round" && s.Parent == 0:
				roots++
			case s.Kind == "fed.device":
				devices++
			}
		}
		if roots != 3 {
			t.Fatalf("async=%v: %d fed.round roots, want 3 (one per round)", async, roots)
		}
		if devices == 0 {
			t.Fatalf("async=%v: no fed.device spans recorded", async)
		}
	}
}

// TestSpanSamplerWorkersDifferential pins the sampler's scheduling
// independence: with tracing fully on, -workers 1 and 4 must still produce
// byte-identical artifacts AND agree on which traces were sampled.
func TestSpanSamplerWorkersDifferential(t *testing.T) {
	rec1 := span.NewRecorder(1 << 12)
	rec1.SetSampler(77, 1)
	t1, c1, p1 := runNebulaSpans(t, rec1, true, 1)
	rec4 := span.NewRecorder(1 << 12)
	rec4.SetSampler(77, 1)
	t4, c4, p4 := runNebulaSpans(t, rec4, true, 4)
	if !bytes.Equal(t1, t4) {
		t.Fatal("trace log differs between workers 1 and 4 with sampling on")
	}
	if !reflect.DeepEqual(c1, c4) {
		t.Fatalf("costs differ between workers 1 and 4 with sampling on: %+v vs %+v", c1, c4)
	}
	if !reflect.DeepEqual(p1, p4) {
		t.Fatal("model parameters differ between workers 1 and 4 with sampling on")
	}
	traces1 := traceSet(rec1.Snapshot())
	traces4 := traceSet(rec4.Snapshot())
	if !reflect.DeepEqual(traces1, traces4) {
		t.Fatalf("sampled trace sets differ by worker count: %v vs %v", traces1, traces4)
	}
}

func traceSet(spans []span.Span) map[span.TraceID]bool {
	out := map[span.TraceID]bool{}
	for _, s := range spans {
		out[s.Trace] = true
	}
	return out
}

// TestSamplerRateZeroRecordsNothing: a closed sampler must keep the round
// path completely span-free (the 0-alloc reject path in practice).
func TestSamplerRateZeroRecordsNothing(t *testing.T) {
	rec := span.NewRecorder(64)
	rec.SetSampler(77, 0)
	_, _, _ = runNebulaSpans(t, rec, false, 2)
	if n := rec.Len(); n != 0 {
		t.Fatalf("closed sampler recorded %d spans, want 0", n)
	}
}
