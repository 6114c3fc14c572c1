package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/obs/span"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{50, 10, 40, 20, 30} // sorted: 10 20 30 40 50
	for _, c := range []struct{ p, want float64 }{
		{50, 30}, {20, 10}, {21, 20}, {90, 50}, {100, 50}, {1, 10},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if s[0] != 50 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	// 100 samples: p90 has exactly 10 above its rank, p99 has 1.
	if n := samplesBeyond(100, 90); n != 10 {
		t.Errorf("samplesBeyond(100, 90) = %d, want 10", n)
	}
	if p, ok := supportedTail(100, 90, 99); !ok || p != 90 {
		t.Errorf("supportedTail(100) = %v %v, want 90 true", p, ok)
	}
	if p, ok := supportedTail(1100, 90, 99); !ok || p != 99 {
		t.Errorf("supportedTail(1100) = %v %v, want 99 true", p, ok)
	}
	if _, ok := supportedTail(99, 90, 99); ok {
		t.Error("supportedTail(99) found a tail with fewer than ten samples beyond it")
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 4, 10, 2, 9, 3, 8, 5, 6}
	sp := spreadOf(v)
	if sp.Q1 != 2.75 || sp.Median != 5.5 || sp.Q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", sp.Q1, sp.Median, sp.Q3)
	}
	if want := 5.5 / 5.5; math.Abs(sp.Rel-want) > 1e-12 {
		t.Errorf("relative spread %v, want %v", sp.Rel, want)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span.Span{
		{Trace: 1, ID: 1, Kind: "bench.round", Start: 0, Dur: 10},
		// Two devices in parallel, overlapping on [3,5]: they cover [1,8].
		{Trace: 1, ID: 2, Parent: 1, Kind: "fed.device", Start: 1, Dur: 4},
		{Trace: 1, ID: 3, Parent: 1, Kind: "fed.device", Start: 3, Dur: 5},
		// A child that sticks out past its parent only counts inside it.
		{Trace: 1, ID: 4, Parent: 1, Kind: "fed.land", Start: 9, Dur: 3},
		// A grandchild takes from its own parent, not from the root.
		{Trace: 1, ID: 5, Parent: 2, Kind: "fed.train", Start: 2, Dur: 2},
	}
	self := selfTimes(spans)
	for id, want := range map[span.SpanID]float64{1: 2, 2: 2, 3: 5, 4: 3, 5: 2} {
		if got := self[id]; math.Abs(got-want) > 1e-12 {
			t.Errorf("self time of span %d = %v, want %v", id, got, want)
		}
	}
}

func TestSummarizeAdoptsProgramRootsAndCoverage(t *testing.T) {
	spans := []span.Span{
		{Trace: 7, ID: 1, Kind: "bench.round", Start: 0, Dur: 10},
		// fed.round is opened as a root by the program; same trace, inside.
		{Trace: 7, ID: 2, Kind: "fed.round", Start: 0.5, Dur: 9},
		{Trace: 7, ID: 3, Parent: 2, Kind: "fed.device", Start: 1, Dur: 8},
		// A root layer span of the benchmark is attributed whole.
		{Trace: 8, ID: 4, Kind: "data.fleet_step", Start: 10, Dur: 1},
	}
	ts := summarizeSpans(spans)
	if spans[1].Parent != 1 {
		t.Fatalf("fed.round was not adopted by the enclosing bench.round (parent %d)", spans[1].Parent)
	}
	if got := ts.selfByKind["bench.round"]; math.Abs(got-1) > 1e-12 {
		t.Errorf("bench.round self = %v, want 1", got)
	}
	if got := ts.selfByKind["fed.round"]; math.Abs(got-1) > 1e-12 {
		t.Errorf("fed.round self = %v, want 1", got)
	}
	// 9 s inside fed.round + 1 s fleet step of 12 s wall.
	if got := ts.coverage(12, 1); math.Abs(got-10.0/12) > 1e-12 {
		t.Errorf("coverage = %v, want %v", got, 10.0/12)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	in := report{Correct: true, Attempted: 12, Failed: 0, Metrics: map[string]value{
		"op_ms_p50": {Value: 1.2034, Unit: "ms"},
		"setup_s":   {Value: 0.8127, Unit: "s"},
	}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("result line lacks key %q: %s", k, b)
		}
	}
	if len(raw) != 4 {
		t.Errorf("result line has %d keys, want exactly 4: %s", len(raw), b)
	}
	var out report
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Attempted != in.Attempted || out.Metrics["op_ms_p50"] != in.Metrics["op_ms_p50"] || len(out.Metrics) != 2 {
		t.Errorf("round trip changed the report: %+v", out)
	}
	// Metric names come out sorted.
	if i, j := bytes.Index(b, []byte("op_ms_p50")), bytes.Index(b, []byte("setup_s")); i < 0 || j < i {
		t.Errorf("metrics are not in sorted-name order: %s", b)
	}
}

// benchmarkJSON is the committed contract file.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark defaults to %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q (or their reasons differ)", i, bj.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: reason must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the benchmark has %d", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)

	// -list prints exactly those names.
	var buf bytes.Buffer
	printList(&buf)
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		listed = append(listed, strings.Fields(line)[1])
	}
	var want []string
	for _, w := range bj.Workloads {
		want = append(want, w.Name)
	}
	for _, m := range append(append([]metricDef(nil), bj.EndToEnd...), bj.PerLayer...) {
		want = append(want, m.Name)
	}
	if strings.Join(listed, " ") != strings.Join(want, " ") {
		t.Errorf("-list prints\n%v\nBENCHMARK.json names\n%v", listed, want)
	}
}

// appliesTo reports whether a per-layer metric has a quantity on a workload;
// elsewhere it must read exactly 0.
func appliesTo(metric, workload string) bool {
	sim := strings.HasPrefix(workload, "sim_")
	switch {
	case strings.HasPrefix(metric, "rpc."):
		return workload == "loopback_rpc"
	case strings.HasPrefix(metric, "fed."), metric == "data.fleet_build_ms":
		return sim
	case metric == "data.fleet_step_ms":
		return workload == "sim_mlp_wire_async"
	case metric == "wire.bytes_per_update":
		return sim || workload == "loopback_rpc"
	case metric == "quality.final_acc":
		return workload != "loopback_rpc"
	}
	return true
}

// mayBeZero lists applicable metrics that legitimately read 0: counts of
// events that need not occur, shares that can vanish, and the overhead
// estimate, which is a difference.
func mayBeZero(metric string) bool {
	switch metric {
	case "tensor.kernel_mode", "quality.failed_ops_ratio", "trace.overhead_pct", "trace.spans_dropped",
		"rt.gc_cycles", "rt.gc_pause_ms", "rpc.exchange_ms_p99",
		"rpc.retries", "rpc.dedups", "rpc.needfull_bounces", "rpc.wire_fallbacks",
		"fed.late_updates", "fed.lost_updates", "fed.dropped_pending", "fed.pending_peak",
		"fed.worker_idle_share", "fed.push_self_ms", "rpc.srv_lock_wait_ms":
		return true
	}
	return false
}

func TestSmokeAllWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			cfg := runConfig{Seed: 1, Ops: 5, Smoke: true, SetupReps: 1}
			rep, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted != cfg.Ops {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d, want true %d 0", rep.Correct, rep.Attempted, rep.Failed, cfg.Ops)
			}
			if len(rep.Metrics) != len(endToEnd) {
				t.Errorf("untraced pass emitted %d metrics, want %d", len(rep.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				v, ok := rep.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("end-to-end %s = %+v (present %v), want a positive finite %s", m.Name, v, ok, m.Unit)
				}
			}

			cfg.Trace = true
			cfg.SpansOut = t.TempDir() + "/spans.jsonl"
			rep, err = runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Metrics) != len(perLayer) {
				t.Errorf("traced pass emitted %d metrics, want %d", len(rep.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				v, ok := rep.Metrics[m.Name]
				switch {
				case !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("per-layer %s = %+v (present %v), want a finite %s", m.Name, v, ok, m.Unit)
				case !appliesTo(m.Name, w.Name) && v.Value != 0:
					t.Errorf("per-layer %s = %v on a workload it does not apply to, want 0", m.Name, v.Value)
				case appliesTo(m.Name, w.Name) && v.Value == 0 && !mayBeZero(m.Name):
					t.Errorf("per-layer %s = 0 on a workload it applies to", m.Name)
				}
			}
			if c := rep.Metrics["trace.coverage"].Value; c < 0.5 || c > 1.0001 {
				t.Errorf("trace.coverage = %v, want within (0.5, 1]", c)
			}
			f, err := os.Open(cfg.SpansOut)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			spans, err := span.ReadJSON(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(spans) == 0 {
				t.Error("traced pass wrote no spans")
			}
			if err := span.ValidateParents(spans); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func TestCheckDeterminismSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := checkDeterminism(&buf, options{seed: 1, smoke: true}); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "deterministic"); n != 2 {
		t.Errorf("expected a verdict for both sim workloads, got:\n%s", buf.String())
	}
}
