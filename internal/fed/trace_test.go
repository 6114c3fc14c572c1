package fed

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/edgenet"
	"repro/internal/tensor"
	"repro/internal/trace"
)

func TestNebulaEmitsTraceEvents(t *testing.T) {
	rng := tensor.NewRNG(21)
	task := HARTask(22, ScaleQuick)
	cfg := tinyCfg()
	cfg.Rounds = 2
	cfg.DevicesPerRound = 3
	nb := NewNebula(task, cfg)
	nb.TrainCfg.Epochs = 1
	var buf bytes.Buffer
	nb.Trace = trace.New(&buf)
	nb.Pretrain(rng, proxyFor(rng, task, 10))
	clients := harFleet(rng, task, 4, 2)
	nb.Adapt(rng, clients)

	events, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sum := trace.Summarize(events)
	if sum.Rounds != 2 {
		t.Fatalf("trace rounds %d, want 2", sum.Rounds)
	}
	costs := nb.Costs()
	if sum.BytesDown != costs.BytesDown || sum.BytesUp != costs.BytesUp {
		t.Fatalf("trace accounting %d/%d disagrees with Costs %d/%d",
			sum.BytesDown, sum.BytesUp, costs.BytesDown, costs.BytesUp)
	}
	// Per-round client updates present.
	var updates, aggs int
	for _, e := range events {
		switch e.Kind {
		case trace.KindClientUpdate:
			updates++
			if e.Modules <= 0 {
				t.Fatal("client update without module count")
			}
		case trace.KindAggregate:
			aggs++
		}
	}
	if updates != 2*3 || aggs != 2 {
		t.Fatalf("events: %d updates, %d aggregations", updates, aggs)
	}
	// Replayed SimTime must match the live accounting exactly: each round
	// contributes its slot (the round's max, carried by round_end), summed
	// across rounds — the regression the old global-max Summarize understated.
	if sum.SimTime != costs.SimTime {
		t.Fatalf("trace SimTime %v disagrees with Costs.SimTime %v", sum.SimTime, costs.SimTime)
	}
	if err := trace.CheckSeq(events); err != nil {
		t.Fatal(err)
	}
}

// TestFaultNotesPinned pins the trace notes of link faults, which the round's
// coordinator writes. A lossy semi-async run (a calibration round, a
// straggler that pends and then leaves with its work in flight, a steady
// round) meets all three faults. Each note of a trained device sits directly
// before that device's client_update, launched in the note's round, or its
// drop_pending churn; a device that sat the round out has no client_update
// to follow. The notes are the same at Workers 1 and 4.
func TestFaultNotesPinned(t *testing.T) {
	const (
		skip     = "fetch lost, no cached sub-model, skipping round"
		cached   = "fetch lost, serving cached sub-model"
		pushLost = "push lost, round aggregates without it"
	)
	run := func(workers int) []trace.Event {
		rng := tensor.NewRNG(77)
		task := HARTask(78, ScaleQuick)
		cfg := tinyCfg()
		cfg.DevicesPerRound = 6
		cfg.Workers = workers
		cfg.Async = true
		nb := NewNebula(task, cfg)
		nb.TrainCfg.Epochs = 1
		fc, err := edgenet.ParseFaultSpec("drop=0.5,seed=22")
		if err != nil {
			t.Fatal(err)
		}
		nb.Faults = NewFaultModel(fc)
		var buf bytes.Buffer
		nb.Trace = trace.New(&buf)
		nb.Pretrain(rng, proxyFor(rng, task, 10))
		all := harFleet(rng, task, 6, 2)
		pinSlowDevice(all[0], 1e6) // far past any deadline: pends in round 2
		nb.Round(rng, all)
		nb.Round(rng, all)
		nb.Round(rng, all[1:]) // the straggler leaves: drop_pending
		nb.Round(rng, all[1:])
		events, err := trace.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return events
	}
	notes := func(events []trace.Event) (out []string) {
		for _, e := range events {
			if e.Kind == trace.KindNote {
				out = append(out, e.Note)
			}
		}
		return out
	}
	events := run(1)
	if w1, w4 := notes(events), notes(run(4)); !slices.Equal(w1, w4) {
		t.Fatalf("fault notes differ between Workers 1 and 4:\n%q\n%q", w1, w4)
	}
	seen := map[string]bool{}
	beforeDrop := false
	for i, e := range events {
		if e.Kind != trace.KindNote {
			continue
		}
		var round, dev int
		if n, _ := fmt.Sscanf(e.Note, "round %d device %d:", &round, &dev); n != 2 {
			t.Fatalf("note %q does not name its round and device", e.Note)
		}
		prefix := fmt.Sprintf("round %d device %d: ", round, dev)
		what := strings.TrimPrefix(e.Note, prefix)
		seen[what] = true
		j := i + 1
		for j < len(events) && events[j].Kind == trace.KindNote && strings.HasPrefix(events[j].Note, prefix) {
			j++
		}
		if j == len(events) {
			t.Fatalf("note %q ends the log", e.Note)
		}
		next := events[j]
		update := next.Kind == trace.KindClientUpdate && next.Client == dev
		drop := next.Kind == trace.KindChurn && next.Note == "drop_pending" && next.Client == dev
		beforeDrop = beforeDrop || drop
		switch what {
		case skip:
			if update {
				t.Fatalf("note %q is followed by the device's client_update %+v", e.Note, next)
			}
		case cached, pushLost:
			if !(update && next.Round-next.Stale == round) && !drop {
				t.Fatalf("note %q is followed by %+v, not its device's client_update or drop_pending", e.Note, next)
			}
		default:
			t.Fatalf("unknown note %q", e.Note)
		}
	}
	for _, what := range []string{skip, cached, pushLost} {
		if !seen[what] {
			t.Errorf("the run wrote no %q note", what)
		}
	}
	if !beforeDrop {
		t.Error("no note precedes a drop_pending churn")
	}
}
