package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// micro returns the smallest options that still exercise every code path.
func micro() Options {
	o := Default()
	o.Devices = 6
	o.ProxyPerClass = 12
	o.Rounds = 1
	o.DevicesPerRound = 3
	o.LocalEpochs = 1
	o.FinetuneEpochs = 1
	o.PretrainEpochs = 1
	o.AdaptSteps = 2
	o.RandomSubModels = 3
	o.Out = &bytes.Buffer{}
	return o
}

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{"fig1a", "fig1b", "fig2", "table1", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13a", "fig13b", "fig13c", "ablations", "faults", "straggler", "compress"}
	have := map[string]bool{}
	for _, r := range Registry() {
		have[r.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("experiment %s missing from registry", id)
		}
	}
	if len(have) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(have), len(want))
	}
}

func TestRunUnknownID(t *testing.T) {
	if err := Run("nope", micro()); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestFig1bTable(t *testing.T) {
	o := micro()
	tb := RunFig1b(o)
	if len(tb.Rows) != 4 {
		t.Fatalf("fig1b rows = %d", len(tb.Rows))
	}
	// Slowdown column ends with the calibrated ≈5x at 4 processes.
	last := tb.Rows[3][3]
	if !strings.HasPrefix(last, "5.0") {
		t.Fatalf("expected ≈5.06x slowdown at 3 background processes, got %s", last)
	}
}

func TestFig2Tables(t *testing.T) {
	o := micro()
	tabs := RunFig2(o)
	if len(tabs) != 3 {
		t.Fatalf("fig2 tables = %d", len(tabs))
	}
	if len(tabs[0].Rows) != 7 {
		t.Fatalf("RAM histogram rows = %d", len(tabs[0].Rows))
	}
	out := tabs[2].String()
	if !strings.Contains(out, "vgg-like") || !strings.Contains(out, "train mem") {
		t.Fatalf("fig2c content:\n%s", out)
	}
}

func TestRunRowProducesAllSystems(t *testing.T) {
	o := micro()
	rows := Table1Rows(o)
	accs, costs := runRow(o, rows[0]) // HAR row: cheapest
	for _, name := range []string{"NA", "LA", "AN", "FA", "HFL", "Nebula"} {
		acc, ok := accs[name]
		if !ok {
			t.Fatalf("system %s missing", name)
		}
		if acc < 0.1 || acc > 1.0 {
			t.Fatalf("%s accuracy %.3f implausible", name, acc)
		}
	}
	if costs["Nebula"].Total() == 0 || costs["FA"].Total() == 0 {
		t.Fatal("collaborative systems must communicate")
	}
	if costs["NA"].Total() != 0 {
		t.Fatal("NA must not communicate")
	}
}

func TestFig8Fig9Static(t *testing.T) {
	o := micro()
	t8 := RunFig8(o)
	if len(t8.Rows) != 8 { // 4 tasks × 2 devices
		t.Fatalf("fig8 rows = %d", len(t8.Rows))
	}
	t9 := RunFig9(o)
	if len(t9.Rows) != 8 {
		t.Fatalf("fig9 rows = %d", len(t9.Rows))
	}
	// Nebula sub-models must be lighter than the full model in every row.
	for _, row := range t8.Rows {
		if row[2] == row[4] {
			t.Fatalf("full model and Nebula m1 identical in %v", row)
		}
	}
}

func TestContinuousSingleTask(t *testing.T) {
	o := micro()
	task := fed.HARTask(o.Seed+30, o.Scale)
	res := runContinuousTask(o, task, 0)
	if len(res.Fig.Series) != 5 {
		t.Fatalf("fig10 series = %d", len(res.Fig.Series))
	}
	for _, s := range res.Fig.Series {
		if len(s.Y) != o.AdaptSteps {
			t.Fatalf("series %s has %d points, want %d", s.Name, len(s.Y), o.AdaptSteps)
		}
	}
	if res.AdaptTime["nebula"] <= 0 {
		t.Fatal("nebula adaptation time not recorded")
	}
	tb := Fig11Table([]*ContinuousResult{res})
	if len(tb.Rows) != 2 {
		t.Fatalf("fig11 rows = %d", len(tb.Rows))
	}
}

func TestFig12SubModelLandscape(t *testing.T) {
	o := micro()
	tabs := RunFig12(o)
	if len(tabs) != 3 {
		t.Fatalf("fig12 tables = %d", len(tabs))
	}
	// Every table carries random points for both variants plus the selected
	// curve.
	for _, tb := range tabs {
		var withAE, withoutAE, selected int
		for _, row := range tb.Rows {
			switch row[0] {
			case "w/ ability-enhancing":
				withAE++
			case "w/o ability-enhancing":
				withoutAE++
			case "selected (knapsack)":
				selected++
			}
		}
		if withAE != o.RandomSubModels || withoutAE != o.RandomSubModels || selected != 5 {
			t.Fatalf("fig12 point counts: %d/%d/%d", withAE, withoutAE, selected)
		}
	}
}

func TestRunDispatchCheapExperiment(t *testing.T) {
	var buf bytes.Buffer
	o := micro()
	o.Out = &buf
	if err := Run("fig1b", o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig 1(b)") {
		t.Fatalf("output missing:\n%s", buf.String())
	}
}

func TestAblationsTable(t *testing.T) {
	o := micro()
	tb := RunAblations(o)
	if len(tb.Rows) != 7 {
		t.Fatalf("ablations rows = %d", len(tb.Rows))
	}
	names := map[string]bool{}
	for _, row := range tb.Rows {
		names[row[0]] = true
		if row[1] == "" || row[2] == "" {
			t.Fatalf("empty cells in %v", row)
		}
	}
	for _, want := range []string{"nebula (full)", "w/o ability-enhancing", "w/o cloud (local only)"} {
		if !names[want] {
			t.Fatalf("variant %q missing", want)
		}
	}
}

func TestRunFaultsCleanVsLossy(t *testing.T) {
	o := micro()
	res := RunFaults(o)
	if len(res.Table.Rows) != 2 {
		t.Fatalf("faults table rows = %d, want clean+lossy", len(res.Table.Rows))
	}
	if res.Table.Rows[0][0] != "clean" || res.Table.Rows[1][0] != "lossy" {
		t.Fatalf("unexpected row labels: %v / %v", res.Table.Rows[0][0], res.Table.Rows[1][0])
	}
	// The default link (25% drop + 5% reset) must actually consult the model.
	if res.Counters.Get("fetches") == 0 || res.Counters.Get("pushes") == 0 {
		t.Fatalf("fault counters empty:\n%s", res.Counters)
	}
	if res.Spec == "" {
		t.Fatal("spec not recorded")
	}
}

// TestRunRejectsOutOfRangeAsyncSettings: a negative or NaN round deadline
// would run the sim clock backwards, and a staleness decay outside [0, 1]
// would weigh late updates above on-time ones; Run refuses both before any
// work, and accepts the range's edges.
func TestRunRejectsOutOfRangeAsyncSettings(t *testing.T) {
	for _, c := range []struct {
		name     string
		deadline float64
		decay    float64
		ok       bool
	}{
		{"negative deadline", -1, 0, false},
		{"NaN deadline", math.NaN(), 0, false},
		{"negative decay", 0, -0.5, false},
		{"NaN decay", 0, math.NaN(), false},
		{"decay above 1", 0, 2, false},
		{"auto deadline, default decay", 0, 0, true},
		{"explicit deadline, decay 1", 3, 1, true},
	} {
		var buf bytes.Buffer
		o := micro()
		o.Out = &buf
		o.RoundDeadline, o.StalenessDecay = c.deadline, c.decay
		err := Run("fig1b", o)
		if c.ok != (err == nil) {
			t.Fatalf("%s: Run returned %v", c.name, err)
		}
		if !c.ok && buf.Len() != 0 {
			t.Fatalf("%s: wrote %d bytes before refusing", c.name, buf.Len())
		}
	}
}

// TestContinualSystemsIndependent pins what lets fig10 run each system's
// steps back to back: one system's series is the same whether it runs in a
// fresh process or after other systems ran theirs.
func TestContinualSystemsIndependent(t *testing.T) {
	o := micro()
	task := fed.HARTask(o.Seed+30, o.Scale)
	proxy := data.MakeBalancedDataset(tensor.NewRNG(o.Seed+40), task.Gen, data.DefaultEnv(), o.ProxyPerClass)
	alone := func(sys fed.System) []float64 {
		sys.Pretrain(tensor.NewRNG(o.Seed+60), proxy)
		acc := &metrics.Series{}
		adaptSteps(o, sys, acc, "alone", shifting(continualFleet(tensor.NewRNG(o.Seed+50), task, max(o.Devices/3, 4))))
		return acc.Y
	}
	same := func(name string, want []float64, got *metrics.Series) {
		t.Helper()
		if len(got.Y) != len(want) {
			t.Fatalf("%s: %d steps, want %d", name, len(got.Y), len(want))
		}
		for i := range want {
			if math.Float64bits(got.Y[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s step %d: %v after the other systems, %v alone", name, i+1, got.Y[i], want[i])
			}
		}
	}
	series := func(res *ContinuousResult, name string) *metrics.Series {
		for _, s := range res.Fig.Series {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("no %s series", name)
		return nil
	}

	// Local adaptation alone first, then inside fig10 after no-adapt.
	la := alone(fed.NewLocalAdapt(task, continualConfig(o)))
	res := runContinuousTask(o, task, 0)
	same("local-adapt", la, series(res, "local-adapt"))

	// Nebula, which fig10 runs last, alone after all of fig10 ran.
	nb := fed.NewNebula(task, continualConfig(o))
	nb.TrainCfg.Epochs = o.PretrainEpochs
	same("nebula", alone(nb), series(res, "nebula"))
}
