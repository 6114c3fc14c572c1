package modular

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Every test of the package runs with arrays NaN-filled on their way back to
// the arena (tensor.PoisonReleasedForTests): a routed layer that read a
// recycled buffer before writing it, or returned one too early, would compute
// NaN in whichever test covers it.
func TestMain(m *testing.M) {
	tensor.PoisonReleasedForTests(true)
	os.Exit(m.Run())
}

// legacyModuleLayer is ModuleLayer.Forward/Backward as they were before the
// layer owned its tables and borrowed its rows: a fresh tensor or slice for
// everything, every step. Kept as the reference the allocation-free layer is
// pinned against, bit for bit.
type legacyModuleLayer struct {
	modules   []nn.Layer
	routes    [][]int
	gateCache [][]float32
	outputs   []*tensor.Tensor
	inShape   []int
	batch     int
}

func (ml *legacyModuleLayer) forward(x *tensor.Tensor, probs [][]float32, topK int, active []int, train bool) *tensor.Tensor {
	batch := x.Dim(0)
	n := len(ml.modules)
	ml.batch = batch
	ml.inShape = append([]int(nil), x.Shape()...)
	ml.routes = make([][]int, n)
	ml.gateCache = make([][]float32, n)
	ml.outputs = make([]*tensor.Tensor, n)
	usable := active
	if usable == nil {
		usable = make([]int, n)
		for i := range usable {
			usable[i] = i
		}
	}
	for b := 0; b < batch; b++ {
		p := probs[b]
		restricted := make([]float32, len(usable))
		for j, i := range usable {
			restricted[j] = p[i]
		}
		k := topK
		if k > len(usable) {
			k = len(usable)
		}
		top := tensor.TopK(restricted, k)
		idx := make([]int, len(top))
		gates := make([]float32, len(top))
		var sum float32
		for j, r := range top {
			idx[j] = usable[r]
			gates[j] = p[usable[r]]
			sum += gates[j]
		}
		if sum <= 1e-12 {
			for j := range gates {
				gates[j] = 1 / float32(len(gates))
			}
		} else {
			for j := range gates {
				gates[j] /= sum
			}
		}
		for j, i := range idx {
			ml.routes[i] = append(ml.routes[i], b)
			ml.gateCache[i] = append(ml.gateCache[i], gates[j])
		}
	}
	sampleLen := x.Len() / batch
	for i := 0; i < n; i++ {
		if len(ml.routes[i]) == 0 {
			continue
		}
		sub := tensor.New(append([]int{len(ml.routes[i])}, x.Shape()[1:]...)...)
		for j, b := range ml.routes[i] {
			copy(sub.Data[j*sampleLen:(j+1)*sampleLen], x.Data[b*sampleLen:(b+1)*sampleLen])
		}
		ml.outputs[i] = ml.modules[i].Forward(sub, train)
	}
	var y *tensor.Tensor
	for i := 0; i < n; i++ {
		if ml.outputs[i] == nil {
			continue
		}
		if y == nil {
			y = tensor.New(append([]int{batch}, ml.outputs[i].Shape()[1:]...)...)
		}
		outLen := ml.outputs[i].Len() / len(ml.routes[i])
		for j, b := range ml.routes[i] {
			tensor.Axpy(ml.gateCache[i][j], ml.outputs[i].Data[j*outLen:(j+1)*outLen], y.Data[b*outLen:(b+1)*outLen])
		}
	}
	return y
}

func (ml *legacyModuleLayer) backward(dy *tensor.Tensor) (*tensor.Tensor, [][]float32) {
	n := len(ml.modules)
	batch := ml.batch
	dx := tensor.New(ml.inShape...)
	gateGrads := make([][]float32, batch)
	for b := range gateGrads {
		gateGrads[b] = make([]float32, n)
	}
	sampleLen := dx.Len() / batch
	outLen := dy.Len() / batch
	dsubs := make([]*tensor.Tensor, n)
	for i := 0; i < n; i++ {
		if len(ml.routes[i]) == 0 {
			continue
		}
		rows := ml.routes[i]
		sub := tensor.New(append([]int{len(rows)}, dy.Shape()[1:]...)...)
		localGateGrad := make([]float64, len(rows))
		for j, b := range rows {
			g := ml.gateCache[i][j]
			dyRow := dy.Data[b*outLen : (b+1)*outLen]
			outRow := ml.outputs[i].Data[j*outLen : (j+1)*outLen]
			dst := sub.Data[j*outLen : (j+1)*outLen]
			for e, v := range dyRow {
				dst[e] = g * v
			}
			localGateGrad[j] = tensor.Dot(outRow, dyRow)
		}
		for j, b := range rows {
			gateGrads[b][i] = float32(localGateGrad[j])
		}
		dsubs[i] = ml.modules[i].Backward(sub)
	}
	for i := 0; i < n; i++ {
		if dsubs[i] == nil {
			continue
		}
		for j, b := range ml.routes[i] {
			tensor.Axpy(1, dsubs[i].Data[j*sampleLen:(j+1)*sampleLen], dx.Data[b*sampleLen:(b+1)*sampleLen])
		}
	}
	return dx, gateGrads
}

// randomGates returns per-sample softmax'd gate rows over n modules.
func randomGates(rng *tensor.RNG, batch, n int) [][]float32 {
	z := tensor.New(batch, n)
	rng.FillNormal(z, 0, 1)
	rows := make([][]float32, batch)
	for b := range rows {
		rows[b] = make([]float32, n)
		tensor.Softmax(rows[b], z.Row(b))
	}
	return rows
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// routedFixture is one routed layer under test, its legacy twin over cloned
// modules, and a way to make inputs for it.
type routedFixture struct {
	name    string
	modules func(rng *tensor.RNG) []nn.Layer
	inShape []int // per sample
}

// The two bypass shapes of builders.go, each beside ordinary modules: a
// parameter-free nn.Identity, whose output IS its gathered input and whose
// input gradient IS the gate-scaled dy it was handed, and a 1×1 conv, which
// goes straight to Gemm on the rows it is given.
var routedFixtures = []routedFixture{
	{
		name: "identity-bypass",
		modules: func(rng *tensor.RNG) []nn.Layer {
			mod := func(mid int) nn.Layer {
				return nn.NewSequential(nn.NewDense(rng, 12, mid), nn.NewReLU(), nn.NewDense(rng, mid, 12))
			}
			return []nn.Layer{mod(5), mod(7), mod(3), mod(6), nn.NewIdentity()}
		},
		inShape: []int{12},
	},
	{
		name: "conv1x1-bypass",
		modules: func(rng *tensor.RNG) []nn.Layer {
			return []nn.Layer{
				convModule(rng, 4, 6, 3, 2), convModule(rng, 4, 6, 5, 2), convModule(rng, 4, 6, 2, 2),
				bypassModule(rng, 4, 6, 2),
			}
		},
		inShape: []int{4, 6, 6},
	},
	{
		name: "conv-identity-bypass",
		modules: func(rng *tensor.RNG) []nn.Layer {
			return []nn.Layer{
				convModule(rng, 4, 4, 3, 1), convModule(rng, 4, 4, 2, 1), bypassModule(rng, 4, 4, 1),
			}
		},
		inShape: []int{4, 5, 5},
	},
}

// TestRoutedLayerMatchesLegacy runs the allocation-free ModuleLayer and the
// legacy copy side by side over a run of steps whose batch sizes and routing
// differ (so every reused buffer carries a predecessor's numbers, or NaN from
// the arena), at Parallelism 1 and 4, with and without an active restriction
// and with an inference forward in between: outputs, input gradients, gate
// gradients and every parameter gradient must agree bit for bit. The whole
// run is then repeated through the edge's backward (SubModel.Backward), which
// returns no gate gradients and may differ in nothing else, and once more
// alternating the two, so a gate step follows a step that left the gate
// buffer alone.
func TestRoutedLayerMatchesLegacy(t *testing.T) {
	old := tensor.Parallelism
	defer func() { tensor.Parallelism = old }()
	for _, fx := range routedFixtures {
		for _, par := range []int{1, 4} {
			tensor.Parallelism = par
			for _, mode := range []string{"gates", "edge", "alternate"} {
				mods := fx.modules(tensor.NewRNG(31))
				legacy := &legacyModuleLayer{}
				for _, m := range mods {
					legacy.modules = append(legacy.modules, nn.CloneLayer(m))
				}
				layer := NewModuleLayer(mods...)
				n := layer.N()
				rng := tensor.NewRNG(37)
				for step, batch := range []int{16, 16, 8, 16, 3, 16} {
					x := tensor.New(append([]int{batch}, fx.inShape...)...)
					rng.FillNormal(x, 0, 1)
					probs := randomGates(rng, batch, n)
					var active []int
					if step == 3 {
						active = []int{0, n - 1}
					}
					if step == 4 {
						// An inference forward between two training steps returns
						// its rows at once and must leave nothing behind.
						if got, want := layer.Forward(x, probs, 2, nil, false), legacy.forward(x, probs, 2, nil, false); !sameBits(got.Data, want.Data) {
							t.Fatalf("%s par=%d %s: inference forward differs from the legacy layer", fx.name, par, mode)
						}
					}
					y := layer.Forward(x, probs, 3, active, true)
					wantY := legacy.forward(x, probs, 3, active, true)
					if !sameBits(y.Data, wantY.Data) || !tensor.FromSlice(y.Data, y.Shape()...).SameShape(wantY) {
						t.Fatalf("%s par=%d %s step %d: forward differs from the legacy layer", fx.name, par, mode, step)
					}
					dy := tensor.New(y.Shape()...)
					rng.FillNormal(dy, 0, 1)
					wantGates := mode == "gates" || mode == "alternate" && step%2 == 1
					dx, gg := layer.backward(dy, wantGates)
					wantDx, wantGG := legacy.backward(dy)
					if !sameBits(dx.Data, wantDx.Data) || !dx.SameShape(wantDx) {
						t.Fatalf("%s par=%d %s step %d: input gradient differs from the legacy layer", fx.name, par, mode, step)
					}
					if !wantGates {
						if gg != nil {
							t.Fatalf("%s par=%d %s step %d: gate gradients from a backward that was told to skip them", fx.name, par, mode, step)
						}
						continue
					}
					if len(gg) != len(wantGG) {
						t.Fatalf("%s par=%d %s step %d: %d gate-gradient rows, want %d", fx.name, par, mode, step, len(gg), len(wantGG))
					}
					for b := range gg {
						if !sameBits(gg[b], wantGG[b]) {
							t.Fatalf("%s par=%d %s step %d: gate gradients of sample %d differ from the legacy layer", fx.name, par, mode, step, b)
						}
					}
				}
				lp := legacy.modules
				for i, m := range layer.Modules {
					for j, p := range m.Params() {
						if !sameBits(p.G.Data, lp[i].Params()[j].G.Data) {
							t.Fatalf("%s par=%d %s: accumulated gradient of module %d %s differs from the legacy layer", fx.name, par, mode, i, p.Name)
						}
					}
				}
				if y := layer.Forward(tensor.New(append([]int{2}, fx.inShape...)...), randomGates(rng, 2, n), 2, nil, true); y.HasNaN() {
					t.Fatalf("%s par=%d %s: NaN from a recycled buffer", fx.name, par, mode)
				}
			}
		}
	}
}

// TestModuleLayerDoubleBackwardPanics: the first Backward returns the step's
// routed inputs to the arena, so a second one has nothing to propagate
// through and must say so rather than read a recycled array. So must a
// Backward after an inference Forward.
func TestModuleLayerDoubleBackwardPanics(t *testing.T) {
	rng := tensor.NewRNG(41)
	layer := NewModuleLayer(routedFixtures[0].modules(rng)...)
	x := tensor.New(6, 12)
	rng.FillNormal(x, 0, 1)
	probs := randomGates(rng, 6, layer.N())
	dy := tensor.New(6, 12)
	mustPanic := func(what string) {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "ModuleLayer.Backward without an unconsumed Forward(train=true)") {
				t.Fatalf("%s: got panic %q, want the documented message", what, msg)
			}
		}()
		layer.Backward(dy)
		t.Fatalf("%s did not panic", what)
	}
	mustPanic("Backward before any Forward")
	layer.Forward(x, probs, 2, nil, true)
	layer.Backward(dy)
	mustPanic("a second Backward on one Forward")
	layer.Forward(x, probs, 2, nil, false)
	mustPanic("Backward after an inference Forward")
	layer.Forward(x, probs, 2, nil, true)
	layer.Backward(dy) // and a new training Forward arms it again
}

// TestModelParkIsInvisible: an offline stage ends its own bout — the cloud
// model TrainEndToEnd returns holds no gradient — and the parked model prices
// its modules as a twin that was never parked does: its layers keep the input
// geometry they recorded, which the cost model behind Derive reads. Parking
// it once more between the two stages (what a caller that does not know the
// stages park may still do) changes no bit of where AbilityEnhance ends,
// selector noise stream included, and that end is the one a model that was
// never parked reached (pinned).
func TestModelParkIsInvisible(t *testing.T) {
	// 4×9 images under a model built for 6×6: the same 36 pixels, so the
	// selector fits, but a stride-2 stage maps them to 2×5 where the square
	// the cost model would otherwise infer gives 3×3.
	drng := tensor.NewRNG(61)
	ds := data.NewDataset([]int{3, 4, 9}, 10)
	for i := 0; i < 40; i++ {
		x := tensor.New(3 * 4 * 9)
		drng.FillNormal(x, float32(i%10)/5, 1)
		ds.Add(x.Data, i%10)
	}
	tc := DefaultTrainConfig()
	tc.Epochs = 1
	build := func(rng *tensor.RNG) *Model {
		return NewModularCNN(rng, 3, 6, 6, []ConvStage{{OutC: 8, Stride: 1}, {OutC: 12, Stride: 2}}, 10, smallCfg())
	}
	unparked := build(tensor.NewRNG(67))
	x, _ := ds.Batch([]int{0, 1, 2, 3})
	unparked.Forward(x, nil, true)
	_, _, wantCosts := unparked.ModuleCosts()
	run := func(park bool) []float32 {
		rng := tensor.NewRNG(67)
		m := build(rng)
		m.TrainEndToEnd(rng, ds, tc)
		for _, p := range m.Params() {
			if p.G != nil {
				t.Fatalf("TrainEndToEnd returned a cloud model that still holds the gradient of %s", p.Name)
			}
		}
		if park {
			m.Park()
		}
		if _, _, costs := m.ModuleCosts(); !reflect.DeepEqual(costs, wantCosts) {
			t.Fatal("Park changed what the cloud model's modules cost")
		}
		m.AbilityEnhance(rng, ds, tc)
		var bits []float32
		for _, p := range m.Params() {
			bits = append(bits, p.W.Data...)
		}
		for _, st := range append(nn.LayerStates(m.Stem), nn.LayerStates(m.Head)...) {
			bits = append(bits, st.Data...)
		}
		return bits
	}
	once := run(false)
	if !sameBits(once, run(true)) {
		t.Fatal("a Park between the offline stages changed where AbilityEnhance ends")
	}
	// Both arms park, so the comparison above cannot see what the stages' own
	// Park costs. The hash is where this fixture ended before they parked at
	// all (train → train on a model never parked, taken at ab0c3b8 on amd64;
	// Adam's products are not float32-wrapped and may fuse elsewhere).
	if runtime.GOARCH == "amd64" {
		h := fnv.New64a()
		var b [4]byte
		for _, v := range once {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
		if got, want := h.Sum64(), uint64(0x0a9e3e9ac9689833); got != want {
			t.Fatalf("the offline stages end at weights %016x, want %016x: the Park at a stage's end is not invisible (or the arithmetic changed: re-pin)", got, want)
		}
	}
}

// TestModuleLayerZeroAllocSteadyState: once the tables, the modules' buffers
// and the arena are warm, a routed layer's Forward+Backward allocates nothing
// over a cycle of different batch sizes and sub-batch splits, and neither
// does a whole sub-model step (selector, stem, routed layers, head) — dense
// and convolutional.
func TestModuleLayerZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; alloc counts are meaningless under -race")
	}
	// A pool that the collector empties mid-measurement refills with one
	// allocation per class; like the Conv2D test, retry and demand a clean run.
	measure := func(what string, cycle func()) {
		t.Helper()
		for i := 0; i < 3; i++ {
			cycle()
		}
		runtime.GC()
		var allocs float64
		for attempt := 0; attempt < 5; attempt++ {
			if allocs = testing.AllocsPerRun(5, cycle); allocs == 0 {
				return
			}
		}
		t.Errorf("%s: %v allocs per cycle in steady state, want 0", what, allocs)
	}

	for _, fx := range routedFixtures {
		rng := tensor.NewRNG(47)
		layer := NewModuleLayer(fx.modules(rng)...)
		type step struct {
			x, dy *tensor.Tensor
			probs [][]float32
		}
		var steps []step
		for _, batch := range []int{16, 16, 8, 16, 5} { // every step routes differently
			x := tensor.New(append([]int{batch}, fx.inShape...)...)
			rng.FillNormal(x, 0, 1)
			probs := randomGates(rng, batch, layer.N())
			y := layer.Forward(x, probs, 2, nil, false)
			dy := tensor.New(y.Shape()...)
			rng.FillNormal(dy, 0, 1)
			steps = append(steps, step{x, dy, probs})
		}
		measure("ModuleLayer "+fx.name, func() {
			for _, s := range steps {
				layer.Forward(s.x, s.probs, 2, nil, true)
				layer.Backward(s.dy)
			}
			layer.Forward(steps[0].x, steps[0].probs, 2, nil, false)
		})
	}

	rng := tensor.NewRNG(53)
	mlp := NewModularMLP(rng, 10, 24, 4, smallCfg())
	cnn := NewModularCNN(rng, 3, 8, 6, []ConvStage{{OutC: 8, Stride: 1}, {OutC: 12, Stride: 2}}, 5, smallCfg())
	for _, tc := range []struct {
		name    string
		sub     *SubModel
		inShape []int
		classes int
	}{
		{"SubModel mlp", mlp.Extract([][]int{{0, 1, 3}}), []int{10}, 4},
		{"SubModel cnn", cnn.Extract([][]int{{0, 2, 3}, {1, 2, 3}}), []int{3, 8, 8}, 5},
	} {
		var xs, gs []*tensor.Tensor
		for _, batch := range []int{16, 16, 8} { // a device's epoch: two full batches and a ragged one
			x := tensor.New(append([]int{batch}, tc.inShape...)...)
			rng.FillNormal(x, 0, 1)
			g := tensor.New(batch, tc.classes)
			rng.FillNormal(g, 0, 1)
			xs, gs = append(xs, x), append(gs, g)
		}
		sub := tc.sub
		measure(tc.name, func() {
			for i := range xs {
				sub.Forward(xs[i], true)
				sub.Backward(gs[i])
			}
		})
	}
}
