package fed

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func tinyCfg() Config {
	return Config{
		PretrainEpochs:  5,
		LocalEpochs:     2,
		FinetuneEpochs:  3,
		LR:              0.02,
		DevicesPerRound: 4,
		Rounds:          2,
		TestPerDevice:   40,
	}
}

func harFleet(rng *tensor.RNG, task *Task, n, m int) []*Client {
	fleet := data.NewFleet(rng, task.Gen, data.PartitionConfig{
		NumDevices: n, ClassesPerDevice: m, MinVolume: 40, MaxVolume: 80, FeatureSkew: true,
	})
	return NewClients(rng, fleet)
}

func proxyFor(rng *tensor.RNG, task *Task, perClass int) *data.Dataset {
	return data.MakeBalancedDataset(rng, task.Gen, data.DefaultEnv(), perClass)
}

func TestAllTasksBuild(t *testing.T) {
	rng := tensor.NewRNG(1)
	for _, task := range AllTasks(7, ScaleQuick) {
		full := task.BuildFull(rng, 1.0)
		x := tensor.New(append([]int{2}, task.InShape...)...)
		rng.FillNormal(x, 0, 1)
		y := full.Forward(x, false)
		if y.Dim(1) != task.Classes {
			t.Fatalf("%s full model outputs %d classes, want %d", task.Name, y.Dim(1), task.Classes)
		}
		mod := task.BuildModular(rng)
		ym := mod.Forward(x, nil, false)
		if ym.Dim(1) != task.Classes {
			t.Fatalf("%s modular model outputs %d classes", task.Name, ym.Dim(1))
		}
		mb := task.BuildBranchy(rng)
		for b := 0; b < mb.NumBranches(); b++ {
			yb := mb.Branch(b).Forward(x, false)
			if yb.Dim(1) != task.Classes {
				t.Fatalf("%s branch %d outputs %d classes", task.Name, b, yb.Dim(1))
			}
		}
		// Width scaling shrinks the full model.
		half := task.BuildFull(rng, 0.5)
		if nn.ParamCount(half.Params()) >= nn.ParamCount(full.Params()) {
			t.Fatalf("%s rate-0.5 model not smaller", task.Name)
		}
	}
}

func TestNoAdaptBasics(t *testing.T) {
	rng := tensor.NewRNG(2)
	task := HARTask(3, ScaleQuick)
	s := NewNoAdapt(task, tinyCfg())
	s.Pretrain(rng, proxyFor(rng, task, 30))
	clients := harFleet(rng, task, 6, 0) // all classes per device
	acc := s.LocalAccuracy(clients)
	if acc < 0.5 {
		t.Fatalf("pretrained NA accuracy %.3f too low on near-IID clients", acc)
	}
	s.Adapt(rng, clients)
	if c := s.Costs(); c.Total() != 0 {
		t.Fatalf("NA must not communicate, got %d bytes", c.Total())
	}
}

func TestLocalAdaptImprovesOnSkewedClients(t *testing.T) {
	rng := tensor.NewRNG(3)
	task := HARTask(4, ScaleQuick)
	cfg := tinyCfg()
	proxy := proxyFor(rng, task, 30)

	na := NewNoAdapt(task, cfg)
	na.Pretrain(tensor.NewRNG(10), proxy)
	la := NewLocalAdapt(task, cfg)
	la.Pretrain(tensor.NewRNG(10), proxy)

	clients := harFleet(rng, task, 5, 2) // strong label skew
	naAcc := na.LocalAccuracy(clients)
	la.Adapt(rng, clients)
	laAcc := la.LocalAccuracy(clients)
	if laAcc <= naAcc {
		t.Fatalf("LA (%.3f) should beat NA (%.3f) on skewed local tasks", laAcc, naAcc)
	}
	c := la.Costs()
	if c.BytesDown == 0 || c.BytesUp != 0 {
		t.Fatalf("LA comm accounting wrong: %+v", c)
	}
	if c.SimTime <= 0 {
		t.Fatal("LA must accumulate simulated time")
	}
}

// TestBaselinesShareOneCloudModel pins the fairness Table 1's comparison
// rests on: NA, LA, FA and HFL pre-train one cloud model, so from the same
// seed and proxy set they hold bit-identical parameters and states.
func TestBaselinesShareOneCloudModel(t *testing.T) {
	task := Image10Task(6, ScaleQuick) // BatchNorm, so states are compared too
	cfg := tinyCfg()
	proxy := proxyFor(tensor.NewRNG(5), task, 2)
	var want []float32
	for _, s := range []interface {
		System
		Global() nn.Layer
	}{NewNoAdapt(task, cfg), NewLocalAdapt(task, cfg), NewFedAvg(task, cfg), NewHeteroFL(task, cfg)} {
		s.Pretrain(tensor.NewRNG(11), proxy)
		g := s.Global()
		if len(nn.LayerStates(g)) == 0 {
			t.Fatalf("%s: the cloud model has no states to compare", s.Name())
		}
		got := nn.FlattenVector(g.Params(), nn.LayerStates(g))
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: cloud model element %d = %v, NA has %v", s.Name(), i, got[i], want[i])
			}
		}
	}
}

func TestMultiBranchCostsMonotone(t *testing.T) {
	rng := tensor.NewRNG(4)
	task := Image10Task(5, ScaleQuick)
	mb := task.BuildBranchy(rng)
	in := task.InElems()
	for b := 1; b < mb.NumBranches(); b++ {
		f, _ := nn.ForwardCost(mb.Branch(b), in)
		prev, _ := nn.ForwardCost(mb.Branch(b-1), in)
		if f <= prev {
			t.Fatal("deeper branch must cost more FLOPs")
		}
		if modelBytes(mb.Branch(b)) <= modelBytes(mb.Branch(b-1)) {
			t.Fatal("deeper branch must cost more bytes")
		}
	}
}

// TestMultiBranchBranchIsItsPrefix pins that a branch is a view, not a copy:
// its parameters are the model's own pointers (stages 0..b, then exit b), so
// training the view trains the shared trunk and that one exit only.
func TestMultiBranchBranchIsItsPrefix(t *testing.T) {
	rng := tensor.NewRNG(8)
	task := HARTask(9, ScaleQuick)
	mb := task.BuildBranchy(rng)
	if mb.NumBranches() < 3 {
		t.Fatalf("need at least 3 branches, have %d", mb.NumBranches())
	}
	for b := 0; b < mb.NumBranches(); b++ {
		var want []*nn.Param
		for s := 0; s <= b; s++ {
			want = append(want, mb.Stages[s].Params()...)
		}
		want = append(want, mb.Exits[b].Params()...)
		got := mb.Branch(b).Params()
		if len(got) != len(want) {
			t.Fatalf("branch %d has %d params, want %d", b, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("branch %d param %d is not the model's own", b, i)
			}
		}
	}

	snapshot := func(l nn.Layer) []float32 { return nn.FlattenVector(l.Params(), nil) }
	before := make([][]float32, 0, len(mb.Stages)+len(mb.Exits))
	for _, l := range append(append([]nn.Layer{}, mb.Stages...), mb.Exits...) {
		before = append(before, snapshot(l))
	}
	clients := harFleet(rng, task, 1, 2)
	TrainLayer(tensor.NewRNG(10), mb.Branch(1), clients[0].Dev.Train, 1, 0.05, BatchSize, nil)
	moved := func(l nn.Layer, was []float32) bool {
		for i, v := range snapshot(l) {
			if math.Float32bits(v) != math.Float32bits(was[i]) {
				return true
			}
		}
		return false
	}
	ns := len(mb.Stages)
	if !moved(mb.Stages[0], before[0]) || !moved(mb.Exits[1], before[ns+1]) {
		t.Fatal("training branch 1 must move stage 0 and exit 1")
	}
	for e, l := range mb.Exits {
		if e != 1 && moved(l, before[ns+e]) {
			t.Fatalf("training branch 1 moved exit %d", e)
		}
	}
	for s := 2; s < ns; s++ {
		if moved(mb.Stages[s], before[s]) {
			t.Fatalf("training branch 1 moved stage %d", s)
		}
	}
}

func TestAdaptiveNetBranchSelectionUnderContention(t *testing.T) {
	rng := tensor.NewRNG(5)
	task := Image10Task(6, ScaleQuick)
	s := NewAdaptiveNet(task, tinyCfg())
	s.Pretrain(rng, proxyFor(rng, task, 8))
	clients := harFleetImage(rng, task, 1)
	c := clients[0]
	c.Mon.SetBackgroundProcs(0)
	bFree := s.cloud.PickBranch(c.Mon.Profile(), task.InElems(), s.latencyBudget)
	c.Mon.SetBackgroundProcs(4)
	bLoaded := s.cloud.PickBranch(c.Mon.Profile(), task.InElems(), s.latencyBudget)
	if bLoaded > bFree {
		t.Fatalf("contention must not select a deeper branch: %d vs %d", bLoaded, bFree)
	}
}

func harFleetImage(rng *tensor.RNG, task *Task, n int) []*Client {
	fleet := data.NewFleet(rng, task.Gen, data.PartitionConfig{
		NumDevices: n, ClassesPerDevice: 2, MinVolume: 30, MaxVolume: 50,
	})
	return NewClients(rng, fleet)
}

func TestAdaptiveNetAdaptRuns(t *testing.T) {
	rng := tensor.NewRNG(6)
	task := HARTask(7, ScaleQuick)
	s := NewAdaptiveNet(task, tinyCfg())
	s.Pretrain(rng, proxyFor(rng, task, 20))
	clients := harFleet(rng, task, 3, 2)
	s.Adapt(rng, clients)
	acc := s.LocalAccuracy(clients)
	if acc < 0.4 {
		t.Fatalf("AN accuracy %.3f unreasonably low", acc)
	}
	if s.Costs().BytesDown == 0 {
		t.Fatal("AN must charge the branch download")
	}
}

func TestFedAvgRoundImprovesAndAccounts(t *testing.T) {
	rng := tensor.NewRNG(7)
	task := HARTask(8, ScaleQuick)
	cfg := tinyCfg()
	cfg.Rounds = 3
	cfg.DevicesPerRound = 4
	s := NewFedAvg(task, cfg)
	proxy := proxyFor(rng, task, 10) // weak pretraining so rounds matter
	s.Pretrain(rng, proxy)
	clients := harFleet(rng, task, 6, 0)
	before := s.LocalAccuracy(clients)
	s.Adapt(rng, clients)
	after := s.LocalAccuracy(clients)
	if after <= before-0.02 {
		t.Fatalf("FedAvg degraded: %.3f → %.3f", before, after)
	}
	c := s.Costs()
	bytes := modelBytes(s.Global())
	wantDown := bytes * int64(cfg.Rounds) * int64(cfg.DevicesPerRound)
	if c.BytesDown != wantDown || c.BytesUp != wantDown {
		t.Fatalf("FedAvg comm accounting: %+v, want %d each way", c, wantDown)
	}
	if c.Rounds != cfg.Rounds {
		t.Fatalf("rounds = %d", c.Rounds)
	}
}

func TestHeteroFLRateLadder(t *testing.T) {
	rng := tensor.NewRNG(8)
	task := HARTask(9, ScaleQuick)
	s := NewHeteroFL(task, tinyCfg())
	clients := harFleet(rng, task, 30, 2)
	seen := map[float64]int{}
	for _, c := range clients {
		r := s.clientRate(c)
		if r != 1 && r != 0.75 && r != 0.5 {
			t.Fatalf("rate %v not in ladder", r)
		}
		seen[r]++
	}
	if len(seen) < 2 {
		t.Fatal("heterogeneous fleet should map to several rates")
	}
}

func TestHeteroFLSliceDownSharesPrefix(t *testing.T) {
	rng := tensor.NewRNG(9)
	task := HARTask(10, ScaleQuick)
	s := NewHeteroFL(task, tinyCfg())
	s.Pretrain(rng, proxyFor(rng, task, 20))
	sliced := s.sliceDown(rng, 0.5)
	gp := s.global.Params()
	sp := sliced.Params()
	if len(gp) != len(sp) {
		t.Fatalf("param list mismatch %d vs %d", len(gp), len(sp))
	}
	// First dense layer: sliced weight rows must equal global prefix rows.
	gw, sw := gp[0].W, sp[0].W
	for o := 0; o < sw.Dim(0); o++ {
		for i := 0; i < sw.Dim(1); i++ {
			if sw.At(o, i) != gw.At(o, i) {
				t.Fatal("sliced weights do not match global prefix")
			}
		}
	}
	if nn.ParamCount(sp) >= nn.ParamCount(gp) {
		t.Fatal("slice must be smaller")
	}
}

func TestHeteroFLRoundPreservesUncoveredCoords(t *testing.T) {
	rng := tensor.NewRNG(10)
	task := HARTask(11, ScaleQuick)
	cfg := tinyCfg()
	cfg.Rounds = 1
	cfg.DevicesPerRound = 2
	s := NewHeteroFL(task, cfg)
	s.Pretrain(rng, proxyFor(rng, task, 15))
	clients := harFleet(rng, task, 2, 2)
	// Force tiny slices so most global coordinates are uncovered.
	for _, c := range clients {
		s.rate[c.Dev.ID] = 0.125
	}
	gw := s.global.Params()[0].W
	cornerBefore := gw.At(gw.Dim(0)-1, gw.Dim(1)-1)
	s.Adapt(rng, clients)
	cornerAfter := gw.At(gw.Dim(0)-1, gw.Dim(1)-1)
	if cornerBefore != cornerAfter {
		t.Fatal("uncovered coordinate changed during aggregation")
	}
	if s.Costs().Total() == 0 {
		t.Fatal("HFL must account communication")
	}
}

func TestNebulaStrategyEndToEnd(t *testing.T) {
	rng := tensor.NewRNG(11)
	task := HARTask(12, ScaleQuick)
	cfg := tinyCfg()
	cfg.Rounds = 2
	cfg.DevicesPerRound = 4
	s := NewNebula(task, cfg)
	s.TrainCfg.Epochs = 4
	proxy := proxyFor(rng, task, 30)
	s.Pretrain(rng, proxy)
	clients := harFleet(rng, task, 6, 2)

	na := NewNoAdapt(task, cfg)
	na.Pretrain(tensor.NewRNG(33), proxy)
	naAcc := na.LocalAccuracy(clients)

	s.Adapt(rng, clients)
	acc := s.LocalAccuracy(clients)
	if acc <= naAcc-0.05 {
		t.Fatalf("Nebula (%.3f) should not trail NA (%.3f) after adaptation", acc, naAcc)
	}
	c := s.Costs()
	if c.BytesDown == 0 || c.BytesUp == 0 {
		t.Fatalf("Nebula comm accounting: %+v", c)
	}
	// Sub-models must be smaller than the full modular model.
	full := int64(nn.ParamCount(s.Model.Params())) * 4
	for _, cl := range clients {
		if sub := s.SubModelOf(cl.Dev.ID); sub != nil {
			if sub.ParamBytes() >= full {
				t.Fatalf("sub-model (%d B) not smaller than cloud model (%d B)", sub.ParamBytes(), full)
			}
		}
	}
}

func TestNebulaCommLessThanFedAvg(t *testing.T) {
	rng := tensor.NewRNG(12)
	task := HARTask(13, ScaleQuick)
	cfg := tinyCfg()
	proxy := proxyFor(rng, task, 20)
	clients := harFleet(rng, task, 6, 2)

	fa := NewFedAvg(task, cfg)
	fa.Pretrain(tensor.NewRNG(1), proxy)
	fa.Adapt(rng, clients)

	nb := NewNebula(task, cfg)
	nb.TrainCfg.Epochs = 2
	nb.Pretrain(tensor.NewRNG(1), proxy)
	nb.Adapt(rng, clients)

	if nb.Costs().Total() >= fa.Costs().Total() {
		t.Fatalf("Nebula comm (%d) should undercut FedAvg (%d)", nb.Costs().Total(), fa.Costs().Total())
	}
}

func TestNebulaAblationVariantsRun(t *testing.T) {
	rng := tensor.NewRNG(13)
	task := HARTask(14, ScaleQuick)
	cfg := tinyCfg()
	cfg.Rounds = 1
	proxy := proxyFor(rng, task, 15)
	clients := harFleet(rng, task, 3, 2)

	noLocal := NewNebula(task, cfg)
	noLocal.LocalTraining = false
	noLocal.TrainCfg.Epochs = 2
	noLocal.Pretrain(rng, proxy)
	noLocal.Adapt(rng, clients)
	if noLocal.Costs().BytesUp != 0 {
		t.Fatal("w/o-local-training variant must not upload")
	}
	if noLocal.LocalAccuracy(clients) <= 0 {
		t.Fatal("w/o-local variant must still serve models")
	}

	noCloud := NewNebula(task, cfg)
	noCloud.CloudCollaboration = false
	noCloud.TrainCfg.Epochs = 2
	noCloud.Pretrain(rng, proxy)
	noCloud.Adapt(rng, clients)
	down1 := noCloud.Costs().BytesDown
	noCloud.Adapt(rng, clients)
	if noCloud.Costs().BytesDown != down1 {
		t.Fatal("w/o-cloud variant must not re-download after the first step")
	}
}

func TestSampleClientsDistinct(t *testing.T) {
	rng := tensor.NewRNG(14)
	task := HARTask(15, ScaleQuick)
	clients := harFleet(rng, task, 10, 2)
	picked := sampleClients(rng, clients, 5)
	if len(picked) != 5 {
		t.Fatalf("picked %d", len(picked))
	}
	seen := map[int]bool{}
	for _, c := range picked {
		if seen[c.Dev.ID] {
			t.Fatal("duplicate client sampled")
		}
		seen[c.Dev.ID] = true
	}
	all := sampleClients(rng, clients, 99)
	if len(all) != 10 {
		t.Fatal("oversampling should return everyone")
	}
}

func TestSampleClientsOversampleReturnsCopy(t *testing.T) {
	rng := tensor.NewRNG(16)
	task := HARTask(17, ScaleQuick)
	clients := harFleet(rng, task, 4, 2)
	// k >= len(clients) must hand back a fresh slice, not an alias: callers
	// (the async engine keeps participant slices across rounds) may hold or
	// mutate the result without corrupting the caller's fleet ordering.
	for _, k := range []int{4, 99} {
		picked := sampleClients(rng, clients, k)
		if len(picked) != len(clients) {
			t.Fatalf("k=%d: picked %d", k, len(picked))
		}
		saved := clients[0]
		picked[0] = nil
		if clients[0] != saved {
			t.Fatalf("k=%d: sampleClients aliased the caller's slice", k)
		}
		picked[0] = saved
	}
}

func TestTaskByName(t *testing.T) {
	for _, name := range []string{"har-mlp", "image10-resnet", "image100-vgg", "speech-resnet"} {
		task := TaskByName(name, 1, ScaleQuick)
		if task == nil || task.Name != name {
			t.Fatalf("TaskByName(%q) failed", name)
		}
	}
	if TaskByName("nope", 1, ScaleQuick) != nil {
		t.Fatal("unknown task should be nil")
	}
}

func TestScaleByName(t *testing.T) {
	for name, want := range map[string]Scale{"quick": ScaleQuick, "paper": ScalePaper} {
		if got, err := ScaleByName(name); err != nil || got != want {
			t.Fatalf("ScaleByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "Paper", "papr", "full"} {
		if _, err := ScaleByName(name); err == nil {
			t.Fatalf("ScaleByName(%q): want an error", name)
		}
	}
}

func TestClientsFromDirichletFleet(t *testing.T) {
	rng := tensor.NewRNG(30)
	task := HARTask(31, ScaleQuick)
	fleet := data.NewDirichletFleet(rng, task.Gen, 8, 0.3, 30, 60)
	clients := NewClients(rng, fleet)
	if len(clients) != 8 {
		t.Fatalf("clients %d", len(clients))
	}
	// The Nebula strategy must run unchanged on Dirichlet partitions.
	cfg := tinyCfg()
	cfg.Rounds = 1
	cfg.DevicesPerRound = 3
	nb := NewNebula(task, cfg)
	nb.TrainCfg.Epochs = 1
	nb.Pretrain(rng, proxyFor(rng, task, 10))
	nb.Adapt(rng, clients)
	if acc := nb.LocalAccuracy(clients); acc <= 0 || acc > 1 {
		t.Fatalf("accuracy %v", acc)
	}
}
