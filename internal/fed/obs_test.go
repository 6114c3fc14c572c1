package fed

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/edgenet"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// TestRegistryTwoPassArtifactsIdentical is the artifact-neutrality proof:
// metric values never feed back into a run. The same seeded run twice in one
// process — the second pass starting from every counter the first left in
// the process-wide registry — must produce byte-identical traces and equal
// costs, accuracy, and final model parameters.
func TestRegistryTwoPassArtifactsIdentical(t *testing.T) {
	logA, costsA, accA, vecA := runNebula(t, 4, 0.25, true)
	if obs.Default().Counter("nebula_fed_rounds_total").Value() == 0 {
		t.Fatal("the first pass left no counters behind")
	}
	logB, costsB, accB, vecB := runNebula(t, 4, 0.25, true)
	if !bytes.Equal(logA, logB) {
		t.Fatalf("trace differs between passes (%d vs %d bytes)", len(logA), len(logB))
	}
	if costsA != costsB {
		t.Fatalf("costs differ between passes: %+v vs %+v", costsA, costsB)
	}
	if accA != accB {
		t.Fatalf("accuracy differs between passes: %v vs %v", accA, accB)
	}
	if !reflect.DeepEqual(vecA, vecB) {
		t.Fatal("final model differs between passes")
	}
}

// counterValue reads one point's value from a registry snapshot.
func counterValue(t *testing.T, r *obs.Registry, name, labels string) float64 {
	t.Helper()
	for _, f := range r.Snapshot() {
		if f.Name != name {
			continue
		}
		for _, p := range f.Points {
			if p.Labels == labels {
				return p.Value
			}
		}
	}
	t.Fatalf("metric %s{%s} not found", name, labels)
	return 0
}

// crossCheckRun runs a fully-participating adaptation (no dropout, no
// faults: every sampled device emits a client_update) against a private
// registry and returns that registry plus the trace bytes.
func crossCheckRun(t *testing.T, workers int) (*obs.Registry, []byte) {
	t.Helper()
	rng := tensor.NewRNG(77)
	task := HARTask(78, ScaleQuick)
	cfg := tinyCfg()
	cfg.Rounds = 3
	cfg.DevicesPerRound = 5
	cfg.Workers = workers
	nb := NewNebula(task, cfg)
	nb.TrainCfg.Epochs = 1
	reg := obs.NewRegistry()
	nb.Metrics = NewRoundMetrics(reg)
	var buf bytes.Buffer
	nb.Trace = trace.New(&buf)
	nb.Pretrain(rng, proxyFor(rng, task, 10))
	nb.Adapt(rng, harFleet(rng, task, 8, 2))
	return reg, buf.Bytes()
}

// TestTraceSummarizeMatchesCounters is the cross-layer drift detector:
// trace.Summarize totals recomputed from the JSONL log must exactly equal
// the live obs counters — bytes both ways, simulated seconds (bit-exact
// float equality: both sides sum the same values in the same order), and
// rounds.
func TestTraceSummarizeMatchesCounters(t *testing.T) {
	reg, log := crossCheckRun(t, 4)
	events, err := trace.Read(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckSeq(events); err != nil {
		t.Fatal(err)
	}
	sum := trace.Summarize(events)
	if got := counterValue(t, reg, "nebula_fed_rounds_total", ""); got != float64(sum.Rounds) {
		t.Errorf("rounds counter = %v, trace says %d", got, sum.Rounds)
	}
	if got := counterValue(t, reg, "nebula_fed_traffic_bytes_total", `dir="up"`); got != float64(sum.BytesUp) {
		t.Errorf("bytes-up counter = %v, trace says %d", got, sum.BytesUp)
	}
	if got := counterValue(t, reg, "nebula_fed_traffic_bytes_total", `dir="down"`); got != float64(sum.BytesDown) {
		t.Errorf("bytes-down counter = %v, trace says %d", got, sum.BytesDown)
	}
	if got := counterValue(t, reg, "nebula_fed_sim_seconds_total", ""); got != sum.SimTime {
		t.Errorf("sim-seconds counter = %v, trace says %v", got, sum.SimTime)
	}
}

// TestReplayTraceMatchesLiveRegistry pins the `nebula-trace -metrics`
// contract: replaying the JSONL log into a fresh registry reproduces the
// live registry's deterministic families exactly — same names, labels,
// values, and bucket counts — so offline and live expositions are
// comparable byte-for-byte on the deterministic subset.
func TestReplayTraceMatchesLiveRegistry(t *testing.T) {
	reg, log := crossCheckRun(t, 2)
	events, err := trace.Read(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	replayed := ReplayTrace(events)

	// The deterministic families the replay can reconstruct from the log.
	deterministic := map[string]bool{
		"nebula_fed_rounds_total":             true,
		"nebula_fed_sim_seconds_total":        true,
		"nebula_fed_traffic_bytes_total":      true,
		"nebula_fed_aggregations_total":       true,
		"nebula_fed_updates_aggregated_total": true,
		"nebula_fed_round_slot_seconds":       true,
		"nebula_fed_device_sim_seconds":       true,
		"nebula_fed_current_round":            true,
		"nebula_fed_participants":             true,
	}
	pick := func(fams []obs.Family) []obs.Family {
		var out []obs.Family
		for _, f := range fams {
			if deterministic[f.Name] {
				out = append(out, f)
			}
		}
		return out
	}
	var live, offline bytes.Buffer
	if err := obs.WritePrometheus(&live, pick(reg.Snapshot())); err != nil {
		t.Fatal(err)
	}
	if err := obs.WritePrometheus(&offline, pick(replayed.Snapshot())); err != nil {
		t.Fatal(err)
	}
	if live.String() != offline.String() {
		t.Fatalf("replayed metrics diverge from live registry:\n--- live ---\n%s--- replayed ---\n%s", live.String(), offline.String())
	}
}

// TestReplaySummarizeSemantics checks Replay mirrors Summarize's closeRound
// rule on a trace with no round_end events (legacy/partial logs).
func TestReplaySummarizeSemantics(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindRoundStart, Round: 1},
		{Kind: trace.KindClientUpdate, Round: 1, Client: 3, BytesUp: 10, BytesDn: 20, SimTime: 2.5},
		{Kind: trace.KindClientUpdate, Round: 1, Client: 4, BytesUp: 1, BytesDn: 2, SimTime: 4},
		{Kind: trace.KindRoundStart, Round: 2},
		{Kind: trace.KindClientUpdate, Round: 2, Client: 3, BytesUp: 7, BytesDn: 9, SimTime: 1},
		{Kind: trace.KindRoundEnd, Round: 2, SimTime: 1.5},
	}
	sum := trace.Summarize(events)
	reg := ReplayTrace(events)
	if got := counterValue(t, reg, "nebula_fed_sim_seconds_total", ""); got != sum.SimTime {
		t.Errorf("replay sim-seconds = %v, Summarize = %v", got, sum.SimTime)
	}
	if got := counterValue(t, reg, "nebula_fed_rounds_total", ""); got != float64(sum.Rounds) {
		t.Errorf("replay rounds = %v, Summarize = %d", got, sum.Rounds)
	}
	if got := counterValue(t, reg, "nebula_fed_traffic_bytes_total", `dir="up"`); got != float64(sum.BytesUp) {
		t.Errorf("replay bytes-up = %v, Summarize = %d", got, sum.BytesUp)
	}
}

// TestAsyncTraceSummarizeMatchesCounters extends the cross-layer drift
// detector to semi-async mode: with carried stragglers, late landings, and
// churn (drop_pending charges, join bootstrap downloads), the trace totals
// must still exactly equal the live obs counters.
func TestAsyncTraceSummarizeMatchesCounters(t *testing.T) {
	reg := obs.NewRegistry()
	log, costs, _, _ := asyncChurnScenario(t, 4, reg)
	events, err := trace.Read(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckSeq(events); err != nil {
		t.Fatal(err)
	}
	sum := trace.Summarize(events)
	if got := counterValue(t, reg, "nebula_fed_rounds_total", ""); got != float64(sum.Rounds) || sum.Rounds != costs.Rounds {
		t.Errorf("rounds counter = %v, trace says %d, live %d", got, sum.Rounds, costs.Rounds)
	}
	if got := counterValue(t, reg, "nebula_fed_traffic_bytes_total", `dir="up"`); got != float64(sum.BytesUp) {
		t.Errorf("bytes-up counter = %v, trace says %d", got, sum.BytesUp)
	}
	if got := counterValue(t, reg, "nebula_fed_traffic_bytes_total", `dir="down"`); got != float64(sum.BytesDown) {
		t.Errorf("bytes-down counter = %v, trace says %d", got, sum.BytesDown)
	}
	if got := counterValue(t, reg, "nebula_fed_sim_seconds_total", ""); got != sum.SimTime {
		t.Errorf("sim-seconds counter = %v, trace says %v", got, sum.SimTime)
	}
	// The async families must agree with a direct recount of the log.
	var late, staleSum float64
	churn := map[string]float64{}
	for _, e := range events {
		switch e.Kind {
		case trace.KindClientUpdate:
			if e.Stale > 0 {
				late++
				staleSum += float64(e.Stale)
			}
		case trace.KindChurn:
			churn[e.Note]++
		}
	}
	if got := counterValue(t, reg, "nebula_fed_late_updates_total", ""); got != late {
		t.Errorf("late-updates counter = %v, trace says %v", got, late)
	}
	if got := counterValue(t, reg, "nebula_fed_stale_rounds_total", ""); got != staleSum {
		t.Errorf("stale-rounds counter = %v, trace says %v", got, staleSum)
	}
	for _, ev := range []string{"join", "leave", "drop_pending"} {
		if got := counterValue(t, reg, "nebula_fed_churn_events_total", `event="`+ev+`"`); got != churn[ev] {
			t.Errorf("churn counter %q = %v, trace says %v", ev, got, churn[ev])
		}
	}
	if churn["drop_pending"] == 0 || churn["join"] == 0 {
		t.Fatal("scenario exercised no churn — the cross-check proves nothing")
	}
}

// TestAsyncReplayTraceMatchesLiveRegistry pins the `nebula-trace -metrics`
// contract in async mode: replaying a semi-async log (deadlines, stale
// landings, churn) reproduces the live deterministic families byte for byte,
// including the four async families.
func TestAsyncReplayTraceMatchesLiveRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	log, _, _, _ := asyncChurnScenario(t, 2, reg)
	assertAsyncReplayMatchesLive(t, reg, log)
}

func assertAsyncReplayMatchesLive(t *testing.T, reg *obs.Registry, log []byte) {
	t.Helper()
	events, err := trace.Read(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	replayed := ReplayTrace(events)
	deterministic := map[string]bool{
		"nebula_fed_rounds_total":             true,
		"nebula_fed_sim_seconds_total":        true,
		"nebula_fed_traffic_bytes_total":      true,
		"nebula_fed_aggregations_total":       true,
		"nebula_fed_updates_aggregated_total": true,
		"nebula_fed_round_slot_seconds":       true,
		"nebula_fed_device_sim_seconds":       true,
		"nebula_fed_current_round":            true,
		"nebula_fed_participants":             true,
		"nebula_fed_late_updates_total":       true,
		"nebula_fed_stale_rounds_total":       true,
		"nebula_fed_round_deadline_seconds":   true,
		"nebula_fed_churn_events_total":       true,
	}
	pick := func(fams []obs.Family) []obs.Family {
		var out []obs.Family
		for _, f := range fams {
			if deterministic[f.Name] {
				out = append(out, f)
			}
		}
		return out
	}
	var live, offline bytes.Buffer
	if err := obs.WritePrometheus(&live, pick(reg.Snapshot())); err != nil {
		t.Fatal(err)
	}
	if err := obs.WritePrometheus(&offline, pick(replayed.Snapshot())); err != nil {
		t.Fatal(err)
	}
	if live.String() != offline.String() {
		t.Fatalf("async replayed metrics diverge from live registry:\n--- live ---\n%s--- replayed ---\n%s", live.String(), offline.String())
	}
}

// TestFaultCountersMirrorStats checks the obs mirror of FaultStats stays in
// lockstep with the authoritative struct across a faulty run — on the
// registry the strategy is bound to, not the process default.
func TestFaultCountersMirrorStats(t *testing.T) {
	rng := tensor.NewRNG(77)
	task := HARTask(78, ScaleQuick)
	cfg := tinyCfg()
	cfg.Rounds = 2
	cfg.DevicesPerRound = 5
	nb := NewNebula(task, cfg)
	nb.TrainCfg.Epochs = 1
	reg := obs.NewRegistry()
	nb.Metrics = NewRoundMetrics(reg)
	fc, err := edgenet.ParseFaultSpec("drop=0.4,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	nb.Faults = NewFaultModel(fc)
	nb.Pretrain(rng, proxyFor(rng, task, 10))
	nb.Adapt(rng, harFleet(rng, task, 6, 2))
	st := nb.Faults.Stats()
	if st.FetchRetries == 0 || st.PushRetries == 0 {
		t.Fatalf("scenario exercised no retries: %+v", st)
	}
	want := map[string]int64{
		"fetch": st.Fetches, "fetch_retry": st.FetchRetries, "fetch_failure": st.FetchFailures,
		"fallback": st.Fallbacks, "skip": st.SkippedRounds,
		"push": st.Pushes, "push_retry": st.PushRetries, "push_failure": st.PushFailures,
	}
	for ev, w := range want {
		if got := counterValue(t, reg, "nebula_fed_fault_events_total", `event="`+ev+`"`); got != float64(w) {
			t.Errorf("fault counter %q = %v, FaultStats says %d", ev, got, w)
		}
	}
}

// TestRoundHealthSectionPinned pins the /statusz round-health digest: the
// round wall latencies print through metrics.FmtDur, oldest first, like every
// other duration on the page.
func TestRoundHealthSectionPinned(t *testing.T) {
	defer func(m *RoundMetrics) { fedMetrics = m }(fedMetrics)
	fedMetrics = NewRoundMetrics(obs.NewRegistry())
	var empty bytes.Buffer
	RoundHealthSection(nil)(&empty)
	for _, sec := range []float64{0.0004, 0.25, 3.5, 150} {
		fedMetrics.noteRoundWall(sec)
	}
	fedMetrics.lateUpdates.Add(2)
	fedMetrics.staleRounds.Add(3)
	var got bytes.Buffer
	RoundHealthSection(nil)(&got)
	lines := strings.SplitN(got.String(), "\n", 3)
	if want := "last 0 round wall latencies: (no rounds yet)\n"; !strings.HasPrefix(empty.String(), want) {
		t.Errorf("before any round: %q, want prefix %q", empty.String(), want)
	}
	if want := "last 4 round wall latencies: 400.0 µs, 250.0 ms, 3.50 s, 2.5 min"; lines[0] != want {
		t.Errorf("latency line %q\n          want %q", lines[0], want)
	}
	if want := "late updates: 2 (total staleness 3 rounds)"; lines[1] != want {
		t.Errorf("late-update line %q, want %q", lines[1], want)
	}
}
