package modular

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// viewTestModels are the two shapes the transport carries: a state-free MLP
// and a CNN whose stem BatchNorm puts running statistics in the vector's
// tail. The statistics are randomized — fresh ones are all 0 and 1.
func viewTestModels() []namedModel {
	rng := tensor.NewRNG(77)
	cnn := NewModularCNN(rng, 3, 8, 8, []ConvStage{{OutC: 8, Stride: 1}, {OutC: 16, Stride: 2}}, 10, smallCfg())
	for _, st := range nn.LayerStates(cnn.Stem) {
		rng.FillNormal(st, 1, 0.3)
	}
	return []namedModel{{"mlp", NewModularMLP(rng, 10, 24, 6, smallCfg())}, {"cnn", cnn}}
}

type namedModel struct {
	name string
	m    *Model
}

// randomSelection keeps each module with probability 1/2; every fourth trial
// empties one layer outright.
func randomSelection(rng *tensor.RNG, m *Model, trial int) [][]int {
	active := make([][]int, len(m.Layers))
	for l, layer := range m.Layers {
		active[l] = []int{}
		for i := 0; i < layer.N(); i++ {
			if rng.Intn(2) == 0 {
				active[l] = append(active[l], i)
			}
		}
	}
	if trial%4 == 0 {
		active[rng.Intn(len(active))] = []int{}
	}
	return active
}

// TestAppendBackboneVectorMatchesExtract: flattening the cloud's own tensors
// for a selection is, bit for bit, the vector of the sub-model extracted for
// it — over random selections, empty layers included — and it appends.
func TestAppendBackboneVectorMatchesExtract(t *testing.T) {
	for _, tm := range viewTestModels() {
		name, m := tm.name, tm.m
		rng := tensor.NewRNG(5)
		for trial := 0; trial < 40; trial++ {
			active := randomSelection(rng, m, trial)
			want := m.Extract(active).BackboneVector()
			if got := m.AppendBackboneVector(nil, active); !sameBits(got, want) {
				t.Fatalf("%s %v: direct flatten differs from Extract().BackboneVector() (%d vs %d elements)", name, active, len(got), len(want))
			}
			got := m.AppendBackboneVector([]float32{1, 2}, active)
			if got[0] != 1 || got[1] != 2 || !sameBits(got[2:], want) {
				t.Fatalf("%s %v: flatten does not append to its destination", name, active)
			}
		}
	}
}

// TestSubModelOverIsExtractThenLoad: the view is the weights-only sub-model
// Extract + LoadBackboneVector builds — same parameters, same states, same
// mapping — living in the vector it was given, with no gradients and no
// selector; and aggregating it moves the cloud model by the same bits.
func TestSubModelOverIsExtractThenLoad(t *testing.T) {
	for mi, tm := range viewTestModels() {
		name, m := tm.name, tm.m
		rng := tensor.NewRNG(9)
		for trial := 0; trial < 20; trial++ {
			active := randomSelection(rng, m, trial)
			vec := make([]float32, len(m.AppendBackboneVector(nil, active)))
			for i := range vec {
				vec[i] = float32(rng.NormFloat64())
			}
			want := m.Extract(active)
			want.LoadBackboneVector(vec)

			own := append([]float32(nil), vec...)
			got, err := m.SubModelOver(active, own)
			if err != nil {
				t.Fatalf("%s %v: %v", name, active, err)
			}
			if !reflect.DeepEqual(got.Mapping, want.Mapping) || got.TopK != want.TopK || got.Selector != nil {
				t.Fatalf("%s %v: mapping %v top-k %d selector %v", name, active, got.Mapping, got.TopK, got.Selector)
			}
			gp, wp := got.Params(), want.Params()
			if len(gp) != len(wp) {
				t.Fatalf("%s %v: %d parameters, want %d", name, active, len(gp), len(wp))
			}
			off := 0
			for i := range gp {
				if gp[i].G != nil {
					t.Fatalf("%s: view parameter %s carries a gradient accumulator", name, gp[i].Name)
				}
				if !gp[i].W.SameShape(wp[i].W) || !sameBits(gp[i].W.Data, wp[i].W.Data) {
					t.Fatalf("%s %v: parameter %d differs from Extract + LoadBackboneVector", name, active, i)
				}
				// A window of the vector, no wider than the parameter.
				n := gp[i].W.Len()
				if n > 0 && (&gp[i].W.Data[0] != &own[off] || cap(gp[i].W.Data) != n) {
					t.Fatalf("%s %v: parameter %d is not a %d-element window of the vector at %d", name, active, i, n, off)
				}
				off += n
			}
			gs, ws := got.AllStates(), want.AllStates()
			for i := range ws {
				if !sameBits(gs[i].Data, ws[i].Data) {
					t.Fatalf("%s %v: state %d differs", name, active, i)
				}
			}
			for _, st := range got.backboneStates() {
				if n := st.Len(); n > 0 && &st.Data[0] == &own[off] {
					t.Fatalf("%s: a state tensor aliases the vector's tail; it must be a copy", name)
				}
				off += st.Len()
			}
			if off != len(own) {
				t.Fatalf("%s %v: view covers %d of %d elements", name, active, off, len(own))
			}

			// Folding either in moves two equal cloud models to equal bits.
			imp := make([][]float64, len(m.Layers))
			for l, layer := range m.Layers {
				imp[l] = make([]float64, layer.N())
				for i := range imp[l] {
					imp[l][i] = rng.Float64()
				}
			}
			a, b := viewTestModels()[mi].m, viewTestModels()[mi].m // two more of m, bit for bit
			a.AggregateModuleWise([]*Update{{Sub: want, Importance: imp, Weight: 3}})
			b.AggregateModuleWise([]*Update{{Sub: got, Importance: imp, Weight: 3}})
			if !sameBits(a.AppendBackboneVector(nil, allModules(a)), b.AppendBackboneVector(nil, allModules(b))) {
				t.Fatalf("%s %v: aggregating the view and the loaded extract diverge", name, active)
			}
		}
	}
}

// allModules selects every module of m.
func allModules(m *Model) [][]int {
	active := make([][]int, len(m.Layers))
	for l, layer := range m.Layers {
		for i := 0; i < layer.N(); i++ {
			active[l] = append(active[l], i)
		}
	}
	return active
}

// TestSubModelOverRejects: a vector of the wrong length or a selection the
// model does not have is an error — never a panic, never a partial view.
func TestSubModelOverRejects(t *testing.T) {
	for _, tm := range viewTestModels() {
		name, m := tm.name, tm.m
		active := allModules(m)
		n := len(m.AppendBackboneVector(nil, active))
		for _, bad := range []int{0, 1, n - 1, n + 1, 2 * n} {
			if sub, err := m.SubModelOver(active, make([]float32, bad)); err == nil || sub != nil {
				t.Errorf("%s: vector of %d elements for a selection of %d accepted", name, bad, n)
			}
		}
		vec := make([]float32, n)
		for what, sel := range map[string][][]int{
			"no layers":       {},
			"one layer extra": append(allModules(m), []int{0}),
			"index too large": replaceFirst(allModules(m), m.Layers[0].N()),
			"negative index":  replaceFirst(allModules(m), -1),
		} {
			if sub, err := m.SubModelOver(sel, vec); err == nil || sub != nil {
				t.Errorf("%s: selection with %s accepted", name, what)
			}
		}
	}
}

func replaceFirst(active [][]int, i int) [][]int {
	active[0] = append([]int{i}, active[0][1:]...)
	return active
}

// deviceWithModuleStates is a sub-model of a CNN whose modules, unlike the
// builders', end in a BatchNorm — so they carry states a backbone vector does
// not — after the device moved those states away from the cloud's.
func deviceWithModuleStates(rng *tensor.RNG) (*Model, *SubModel) {
	m := viewTestModels()[1].m
	for l, layer := range m.Layers {
		for i, mod := range layer.Modules {
			layer.Modules[i] = nn.NewSequential(mod, nn.NewBatchNorm(8<<l)) // the stages' OutC
		}
	}
	sub := m.Extract(randomSelection(rng, m, 1))
	for _, st := range sub.AllStates() {
		rng.FillNormal(st, 1, 0.3)
	}
	return m, sub
}

// TestWithBackboneIsAView: what the far end of a link holds is the device's
// structure and module states over the vector that arrived — parameters are
// windows of it, not copies, stem and head states are copied out of its tail —
// and aggregating it is aggregating a deep copy loaded with the same vector.
func TestWithBackboneIsAView(t *testing.T) {
	rng := tensor.NewRNG(21)
	m, sub := deviceWithModuleStates(rng)
	vec := make([]float32, len(sub.BackboneVector()))
	for i := range vec {
		vec[i] = float32(rng.NormFloat64())
	}
	// The carrier this one replaced: every weight and state cloned, then the
	// vector copied in.
	want := m.Extract(sub.Mapping)
	for i, st := range want.AllStates() {
		st.CopyFrom(sub.AllStates()[i])
	}
	want.LoadBackboneVector(vec)

	own := append([]float32(nil), vec...)
	got := sub.WithBackbone(own)
	if !reflect.DeepEqual(got.Mapping, sub.Mapping) || got.TopK != sub.TopK || got.Selector != nil {
		t.Fatalf("mapping %v (device %v) top-k %d selector %v", got.Mapping, sub.Mapping, got.TopK, got.Selector)
	}
	for l := range got.Mapping {
		if len(got.Mapping[l]) > 0 && &got.Mapping[l][0] == &sub.Mapping[l][0] {
			t.Fatalf("layer %d of the view's mapping is the device's own slice", l)
		}
	}
	off := 0
	for i, p := range got.Params() {
		if p.G != nil || !p.W.SameShape(want.Params()[i].W) {
			t.Fatalf("parameter %s: gradient %v, shape %v", p.Name, p.G != nil, p.W.Shape())
		}
		n := p.W.Len()
		if &p.W.Data[0] != &own[off] || cap(p.W.Data) != n {
			t.Fatalf("parameter %d is not a %d-element window of the vector at %d", i, n, off)
		}
		// One array: a write through either is read through the other.
		own[off], p.W.Data[n-1] = 42, 43
		if p.W.Data[0] != 42 || own[off+n-1] != 43 {
			t.Fatalf("parameter %d does not share the vector's memory", i)
		}
		own[off], p.W.Data[n-1] = vec[off], vec[off+n-1]
		off += n
	}
	ds, gs := sub.AllStates(), got.AllStates()
	if len(gs) != len(ds) || len(gs) == len(got.backboneStates()) {
		t.Fatalf("%d states, device has %d, %d of them in the backbone: no module state covered", len(gs), len(ds), len(got.backboneStates()))
	}
	for i, st := range gs {
		if !sameBits(st.Data, want.AllStates()[i].Data) {
			t.Fatalf("state %d differs from the cloned carrier's", i)
		}
		if &st.Data[0] == &ds[i].Data[0] {
			t.Fatalf("state %d is the device's own tensor", i)
		}
	}
	for _, st := range got.backboneStates() {
		if !sameBits(st.Data, vec[off:off+st.Len()]) || &st.Data[0] == &own[off] {
			t.Fatalf("stem/head state at %d is not a copy of the vector's tail", off)
		}
		off += st.Len()
	}
	if off != len(own) {
		t.Fatalf("view covers %d of %d elements", off, len(own))
	}

	imp := make([][]float64, len(m.Layers))
	for l, layer := range m.Layers {
		imp[l] = make([]float64, layer.N())
		for i := range imp[l] {
			imp[l][i] = rng.Float64()
		}
	}
	a, _ := deviceWithModuleStates(tensor.NewRNG(21))
	b, _ := deviceWithModuleStates(tensor.NewRNG(21))
	a.AggregateModuleWise([]*Update{{Sub: want, Importance: imp, Weight: 3}})
	b.AggregateModuleWise([]*Update{{Sub: got, Importance: imp, Weight: 3}})
	if !sameBits(a.AppendBackboneVector(nil, allModules(a)), b.AppendBackboneVector(nil, allModules(b))) {
		t.Fatal("aggregating the view and the cloned carrier diverge")
	}

	// A vector of another length is refused whole, by the length check — not
	// by whichever slice expression runs out first.
	for _, bad := range []int{len(vec) - 1, len(vec) + 1} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprint(bad)) || !strings.Contains(msg, fmt.Sprint(len(vec))) || strings.Contains(msg, "runtime error") {
					t.Errorf("vector of %d elements for %d: panic %q does not name both lengths", bad, len(vec), msg)
				}
			}()
			sub.WithBackbone(make([]float32, bad))
		}()
	}
}
