package data

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestDatasetAddBatch(t *testing.T) {
	d := NewDataset([]int{3}, 2)
	d.Add([]float32{1, 2, 3}, 0)
	d.Add([]float32{4, 5, 6}, 1)
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	x, y := d.Batch([]int{1, 0})
	if x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("batch shape %v", x.Shape())
	}
	if x.At(0, 0) != 4 || x.At(1, 2) != 3 || y[0] != 1 || y[1] != 0 {
		t.Fatal("batch content wrong")
	}
}

func TestDatasetAddWrongShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDataset([]int{3}, 2).Add([]float32{1}, 0)
}

func TestDatasetBatchesCoverAll(t *testing.T) {
	rng := tensor.NewRNG(1)
	d := NewDataset([]int{1}, 2)
	for i := 0; i < 23; i++ {
		d.Add([]float32{float32(i)}, i%2)
	}
	seen := map[float32]bool{}
	total := 0
	d.Batches(rng, 5, func(x *tensor.Tensor, y []int) {
		if x.Dim(0) > 5 {
			t.Fatalf("batch too large: %d", x.Dim(0))
		}
		for i := 0; i < x.Dim(0); i++ {
			seen[x.At(i, 0)] = true
			total++
		}
	})
	if total != 23 || len(seen) != 23 {
		t.Fatalf("batches covered %d/%d unique", len(seen), total)
	}
}

func TestDatasetSubsetAndSplit(t *testing.T) {
	d := NewDataset([]int{1}, 3)
	for i := 0; i < 10; i++ {
		d.Add([]float32{float32(i)}, i%3)
	}
	s := d.Subset([]int{0, 9})
	if s.Len() != 2 || s.X[1][0] != 9 {
		t.Fatal("Subset wrong")
	}
}

func TestClassHistogramAndClasses(t *testing.T) {
	d := NewDataset([]int{1}, 5)
	d.Add([]float32{0}, 1)
	d.Add([]float32{0}, 3)
	d.Add([]float32{0}, 3)
	h := d.ClassHistogram()
	if h[1] != 1 || h[3] != 2 || h[0] != 0 {
		t.Fatalf("histogram %v", h)
	}
	cs := d.Classes()
	if len(cs) != 2 || cs[0] != 1 || cs[1] != 3 {
		t.Fatalf("classes %v", cs)
	}
}

func TestGeneratorsBasicContracts(t *testing.T) {
	rng := tensor.NewRNG(2)
	gens := []Generator{NewSynthHAR(1), NewSynthImage(1, 10, 8), NewSynthSpeech(1)}
	wantClasses := []int{6, 10, 35}
	for gi, g := range gens {
		if g.NumClasses() != wantClasses[gi] {
			t.Fatalf("%s classes = %d", g.Name(), g.NumClasses())
		}
		n := 1
		for _, s := range g.SampleShape() {
			n *= s
		}
		x := g.Sample(rng, 0, DefaultEnv())
		if len(x) != n {
			t.Fatalf("%s sample len %d, want %d", g.Name(), len(x), n)
		}
		for _, v := range x {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s produced non-finite value", g.Name())
			}
		}
	}
}

func TestGeneratorClassesAreSeparable(t *testing.T) {
	// Same-class samples must be closer to their own prototype than to other
	// classes' prototypes on average — otherwise nothing is learnable.
	rng := tensor.NewRNG(3)
	g := NewSynthImage(7, 10, 8)
	env := DefaultEnv()
	var within, between float64
	const trials = 40
	for i := 0; i < trials; i++ {
		c := rng.Intn(10)
		a := g.Sample(rng, c, env)
		b := g.Sample(rng, c, env)
		o := g.Sample(rng, (c+1+rng.Intn(9))%10, env)
		within += dist(a, b)
		between += dist(a, o)
	}
	if within >= between {
		t.Fatalf("classes not separable: within %.3f vs between %.3f", within/trials, between/trials)
	}
}

func dist(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i] - b[i])
		s += d * d
	}
	return math.Sqrt(s)
}

func TestClassDistancePositive(t *testing.T) {
	g := NewSynthHAR(5)
	if d := ClassDistance(g, 0, 1); !(d > 0) {
		t.Fatalf("ClassDistance = %v", d)
	}
	if d := ClassDistance(g, 2, 2); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
}

func TestEnvShiftChangesDistribution(t *testing.T) {
	rng := tensor.NewRNG(4)
	g := NewSynthHAR(6)
	e1 := DefaultEnv()
	e2 := DefaultEnv()
	e2.Subject = 7
	// Means under different subjects should differ measurably.
	var m1, m2 []float64
	for i := 0; i < 50; i++ {
		a := g.Sample(rng, 0, e1)
		b := g.Sample(rng, 0, e2)
		if m1 == nil {
			m1 = make([]float64, len(a))
			m2 = make([]float64, len(b))
		}
		for j := range a {
			m1[j] += float64(a[j])
			m2[j] += float64(b[j])
		}
	}
	var diff float64
	for j := range m1 {
		diff += math.Abs(m1[j]-m2[j]) / 50
	}
	if diff < 0.05 {
		t.Fatalf("subject change did not shift features: mean |Δ| = %v", diff)
	}
}

func TestMakeDatasetRespectsClasses(t *testing.T) {
	rng := tensor.NewRNG(5)
	g := NewSynthImage(2, 10, 8)
	d := MakeDataset(rng, g, DefaultEnv(), []int{2, 7}, 100)
	if d.Len() != 100 {
		t.Fatalf("Len = %d", d.Len())
	}
	for _, y := range d.Y {
		if y != 2 && y != 7 {
			t.Fatalf("unexpected class %d", y)
		}
	}
	h := d.ClassHistogram()
	if h[2] == 0 || h[7] == 0 {
		t.Fatal("both classes should appear in 100 draws")
	}
}

func TestMakeBalancedDataset(t *testing.T) {
	rng := tensor.NewRNG(6)
	g := NewSynthHAR(3)
	d := MakeBalancedDataset(rng, g, DefaultEnv(), 4)
	if d.Len() != 24 {
		t.Fatalf("Len = %d", d.Len())
	}
	for c, n := range d.ClassHistogram() {
		if n != 4 {
			t.Fatalf("class %d has %d samples", c, n)
		}
	}
}

func TestFleetLabelSkew(t *testing.T) {
	rng := tensor.NewRNG(7)
	g := NewSynthImage(3, 10, 8)
	fleet := NewFleet(rng, g, PartitionConfig{
		NumDevices: 20, ClassesPerDevice: 2, MinVolume: 50, MaxVolume: 150,
	})
	if len(fleet) != 20 {
		t.Fatalf("fleet size %d", len(fleet))
	}
	for _, d := range fleet {
		if len(d.Classes) != 2 {
			t.Fatalf("device %d has %d classes", d.ID, len(d.Classes))
		}
		if d.Train.Len() < 50 || d.Train.Len() > 150 {
			t.Fatalf("device %d volume %d out of [50,150]", d.ID, d.Train.Len())
		}
		for _, y := range d.Train.Y {
			if !slices.Contains(d.Classes, y) {
				t.Fatalf("device %d holds sample of class %d outside %v", d.ID, y, d.Classes)
			}
		}
	}
}

func TestFleetVolumesVary(t *testing.T) {
	rng := tensor.NewRNG(8)
	g := NewSynthHAR(4)
	fleet := NewFleet(rng, g, PartitionConfig{NumDevices: 30, MinVolume: 50, MaxVolume: 150, FeatureSkew: true})
	minV, maxV := fleet[0].Train.Len(), fleet[0].Train.Len()
	subjects := map[int]bool{}
	for _, d := range fleet {
		v := d.Train.Len()
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
		subjects[d.Env.Subject] = true
	}
	if maxV == minV {
		t.Fatal("volumes should be unbalanced")
	}
	if len(subjects) < 20 {
		t.Fatalf("feature skew should assign many subjects, got %d", len(subjects))
	}
}

func TestShiftChangesDataAndClasses(t *testing.T) {
	rng := tensor.NewRNG(9)
	g := NewSynthImage(5, 100, 8)
	dev := NewDeviceData(rng, g, 0, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, DefaultEnv(), 100)
	before := append([]int(nil), dev.Train.Y...)
	beforeClasses := append([]int(nil), dev.Classes...)
	dev.Shift(0.5)
	changed := 0
	for i, y := range dev.Train.Y {
		if y != before[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("Shift replaced no samples")
	}
	classChanged := 0
	for i, c := range dev.Classes {
		if c != beforeClasses[i] {
			classChanged++
		}
	}
	if classChanged == 0 {
		t.Fatal("Shift rotated no classes")
	}
	// Class list must stay valid.
	for _, c := range dev.Classes {
		if c < 0 || c >= 100 {
			t.Fatalf("invalid class %d", c)
		}
	}
}

func TestShiftPreservesVolume(t *testing.T) {
	rng := tensor.NewRNG(10)
	g := NewSynthHAR(7)
	dev := NewDeviceData(rng, g, 1, []int{0, 1}, DefaultEnv(), 80)
	for i := 0; i < 5; i++ {
		dev.Shift(0.5)
		if dev.Train.Len() != 80 {
			t.Fatalf("volume changed to %d", dev.Train.Len())
		}
		for _, y := range dev.Train.Y {
			if y < 0 || y >= 6 {
				t.Fatalf("invalid label %d", y)
			}
		}
	}
}

func TestSubTaskMapping(t *testing.T) {
	if NumSubTasks(10, 2) != 5 {
		t.Fatal("10 classes / groups of 2 = 5 sub-tasks")
	}
	if NumSubTasks(35, 10) != 4 {
		t.Fatal("ceil(35/10) = 4")
	}
	if SubTaskOf(7, 2) != 3 || SubTaskOf(0, 2) != 0 {
		t.Fatal("SubTaskOf wrong")
	}
}

func TestSubTaskOfQuickInRange(t *testing.T) {
	f := func(class uint8, group uint8) bool {
		g := int(group%10) + 1
		c := int(class % 100)
		st := SubTaskOf(c, g)
		return st >= 0 && st < NumSubTasks(100, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceTestSetMatchesLocalTask(t *testing.T) {
	rng := tensor.NewRNG(11)
	g := NewSynthImage(9, 10, 8)
	dev := NewDeviceData(rng, g, 2, []int{3, 4}, DefaultEnv(), 60)
	ts := dev.TestSet(50)
	if ts.Len() != 50 {
		t.Fatalf("test set len %d", ts.Len())
	}
	for _, y := range ts.Y {
		if y != 3 && y != 4 {
			t.Fatalf("test sample class %d outside local task", y)
		}
	}
}
