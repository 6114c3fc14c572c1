package fed

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/edgenet"
	"repro/internal/modular"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Parked sub-models (modular.SubModel.Park) and weights-only upload carriers
// must be invisible: they change what a device pins between rounds, never a
// bit of what it computes.

// Every test of the package runs with arrays NaN-filled on their way back to
// the arena (tensor.PoisonReleasedForTests): Park hands a device's training
// buffers to whichever device the worker trains next, and a bout that read
// one before writing it would put NaN into the differentials and ledgers
// these tests already check.
func TestMain(m *testing.M) {
	tensor.PoisonReleasedForTests(true)
	os.Exit(m.Run())
}

// subModelBits is everything a sub-model is, as bits: backbone parameters,
// every layer state (module BatchNorm statistics included), selector.
func subModelBits(s *modular.SubModel) []uint32 {
	var out []uint32
	add := func(v []float32) {
		for _, x := range v {
			out = append(out, math.Float32bits(x))
		}
	}
	add(s.BackboneVector())
	for _, st := range s.AllStates() {
		add(st.Data)
	}
	add(s.Selector.Vector())
	return out
}

func TestParkedSubModelTrainsIdentically(t *testing.T) {
	for _, task := range []*Task{HARTask(41, ScaleQuick), Image10Task(42, ScaleQuick)} {
		model := task.BuildModular(tensor.NewRNG(43))
		var c *Client
		if len(task.InShape) == 1 {
			c = harFleet(tensor.NewRNG(44), task, 1, 3)[0]
		} else {
			c = harFleetImage(tensor.NewRNG(44), task, 1)[0]
		}
		active := make([][]int, len(model.Layers))
		for l, layer := range model.Layers {
			for i := 0; i < layer.N(); i += 2 {
				active[l] = append(active[l], i)
			}
		}
		// Three bouts on one data stream; the parked copy sheds its scratch
		// after each, once straight after an evaluation.
		train := func(park bool) *modular.SubModel {
			sub := model.Extract(active)
			stream := tensor.NewRNG(45)
			for bout := 0; bout < 3; bout++ {
				TrainLayer(stream.Split(), sub, c.Dev.Train, 1, 0.02, 16, nil)
				if bout == 1 {
					EvalLayer(sub, c.Dev.TestSet(20))
				}
				if !park {
					continue
				}
				sub.Park()
				for _, p := range sub.Params() {
					if p.G != nil {
						t.Fatalf("%s: parked sub-model still holds the gradient of %s", task.Name, p.Name)
					}
				}
			}
			return sub
		}
		kept, parked := train(false), train(true)
		if !reflect.DeepEqual(subModelBits(kept), subModelBits(parked)) {
			t.Fatalf("%s: train → park → train diverges from train → train", task.Name)
		}
		test := c.Dev.TestSet(40)
		if a, b := EvalLayer(kept, test), EvalLayer(parked, test); a != b {
			t.Fatalf("%s: parked sub-model evaluates to %v, unparked to %v", task.Name, b, a)
		}
		if reflect.DeepEqual(subModelBits(kept), subModelBits(model.Extract(active))) {
			t.Fatalf("%s: training moved nothing — the comparison proves nothing", task.Name)
		}
	}
}

// TestRecycledBuffersCarryNoState: a bout's buffers are the previous bout's,
// unzeroed (here: NaN-filled on their way through the arena, see TestMain).
// Train sub-model A and park it, then train a structurally different B on the
// same goroutine — with and without an evaluation bout of a third structure
// in between: B must end up bit-identical to B trained on an empty arena,
// where every buffer is a fresh zeroed allocation.
func TestRecycledBuffersCarryNoState(t *testing.T) {
	hits := obs.Default().Counter("nebula_tensor_buffer_total", "outcome", "hit")
	for _, task := range []*Task{HARTask(61, ScaleQuick), Image10Task(62, ScaleQuick)} {
		model := task.BuildModular(tensor.NewRNG(63))
		var c *Client
		if len(task.InShape) == 1 {
			c = harFleet(tensor.NewRNG(64), task, 1, 3)[0]
		} else {
			c = harFleetImage(tensor.NewRNG(64), task, 1)[0]
		}
		// A holds the even modules, B every third plus each layer's last
		// (the bypass), E the odd ones: different module counts and widths,
		// so no buffer of one bout has the shape the next bout asks for.
		a := make([][]int, len(model.Layers))
		b := make([][]int, len(model.Layers))
		e := make([][]int, len(model.Layers))
		for l, layer := range model.Layers {
			for i := 0; i < layer.N(); i++ {
				if i%2 == 0 {
					a[l] = append(a[l], i)
				} else {
					e[l] = append(e[l], i)
				}
				if i%3 == 1 || i == layer.N()-1 {
					b[l] = append(b[l], i)
				}
			}
		}
		trainB := func() []uint32 {
			sub := model.Extract(b)
			TrainLayer(tensor.NewRNG(65), sub, c.Dev.Train, 2, 0.02, 16, nil)
			sub.Park()
			return subModelBits(sub)
		}
		// Two collections empty every sync.Pool: the state of a new process.
		runtime.GC()
		runtime.GC()
		want := trainB()
		for _, w := range want {
			if f := math.Float32frombits(w); f != f {
				t.Fatalf("%s: the reference run itself computed NaN", task.Name)
			}
		}
		if reflect.DeepEqual(want, subModelBits(model.Extract(b))) {
			t.Fatalf("%s: training moved nothing — the comparison proves nothing", task.Name)
		}
		for _, evalBetween := range []bool{false, true} {
			before := hits.Value()
			subA := model.Extract(a)
			TrainLayer(tensor.NewRNG(66), subA, c.Dev.Train, 1, 0.05, 16, nil)
			subA.Park()
			if evalBetween {
				subE := model.Extract(e)
				EvalLayer(subE, c.Dev.TestSet(50))
				subE.Park()
			}
			got := trainB()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (eval bout in between: %v): B trained on recycled buffers differs from B trained on an empty arena", task.Name, evalBetween)
			}
			if hits.Value() == before {
				t.Fatalf("%s: no buffer was recycled — the comparison proves nothing", task.Name)
			}
		}
	}
}

// TestWireUplinkCarrierIsWhatAggregationReads: the weights-only carrier a
// compressed push hands the cloud aggregates to exactly the model the old
// carrier — a full Extract loaded with the reconstruction — produced.
func TestWireUplinkCarrierIsWhatAggregationReads(t *testing.T) {
	task := HARTask(51, ScaleQuick)
	rng := tensor.NewRNG(52)
	build := func() *modular.Model { return task.BuildModular(tensor.NewRNG(53)) }
	cloud, oracle := build(), build()
	c := harFleet(rng, task, 1, 3)[0]
	active := make([][]int, len(cloud.Layers))
	for l := range cloud.Layers {
		active[l] = []int{0, 1}
	}
	sub := cloud.Extract(active)
	enc := new(edgenet.Encoder)
	_, ref := wireDownlink(enc, sub, nil, edgenet.WireOpts{})
	TrainLayer(rng, sub, c.Dev.Train, 1, 0.02, 16, nil)
	sub.Park()

	up, carrier, _ := wireUplink(enc, sub, ref, edgenet.WireOpts{TopK: 0.25})
	if carrier == sub || carrier.Selector != nil {
		t.Fatal("carrier must be a separate, selector-free sub-model")
	}
	for _, p := range carrier.Params() {
		if p.G != nil {
			t.Fatalf("carrier holds a gradient for %s", p.Name)
		}
	}
	if full := sub.BackboneBytes(); up <= 0 || up >= full/2 {
		t.Fatalf("top-k push charged %d bytes against %d uncompressed", up, full)
	}
	old := oracle.Extract(active)
	old.LoadBackboneVector(carrier.BackboneVector())

	cw := make([]float64, task.Classes)
	for i := range cw {
		cw[i] = float64(i % 3) // some classes unseen
	}
	imp := cloud.ImportanceWith(cloud.Selector.Clone(), tensor.New(append([]int{4}, task.InShape...)...))
	cloud.AggregateModuleWise([]*modular.Update{{Sub: carrier, Importance: imp, Weight: 3, ClassWeights: cw}})
	oracle.AggregateModuleWise([]*modular.Update{{Sub: old, Importance: imp, Weight: 3, ClassWeights: cw}})
	a := nn.FlattenVector(cloud.Params(), append(nn.LayerStates(cloud.Stem), nn.LayerStates(cloud.Head)...))
	b := nn.FlattenVector(oracle.Params(), append(nn.LayerStates(oracle.Stem), nn.LayerStates(oracle.Head)...))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("aggregating the weights-only carrier differs from aggregating a full extract of the same reconstruction")
	}
}

// TestParkingInvisibleOnLossyAsyncLink runs the existing differential and
// ledger checks with everything on at once — semi-async rounds, the v2 wire
// with top-k pushes, link faults, a straggler that pends and leaves, a device
// that joins — where parked sub-models and carriers sit in the pending list
// and the strategy maps across rounds.
func TestParkingInvisibleOnLossyAsyncLink(t *testing.T) {
	reg := obs.NewRegistry()
	log1, costs1, vec1, nb := asyncChurnScenarioOver(t, 1, reg, true)
	log4, costs4, vec4, _ := asyncChurnScenarioOver(t, 4, nil, true)
	if !bytes.Equal(log1, log4) {
		t.Fatalf("trace differs between workers=1 (%d bytes) and workers=4 (%d bytes)", len(log1), len(log4))
	}
	if costs1 != costs4 {
		t.Fatalf("costs differ across worker counts: %+v vs %+v", costs1, costs4)
	}
	if !reflect.DeepEqual(vec1, vec4) {
		t.Fatal("cloud model differs across worker counts")
	}
	assertCostsMatchTrace(t, log1, costs1)
	assertAsyncReplayMatchesLive(t, reg, log1)

	// The scenario must actually have used what it claims to cover.
	events, err := trace.Read(bytes.NewReader(log1))
	if err != nil {
		t.Fatal(err)
	}
	churn := map[string]int{}
	for _, e := range events {
		if e.Kind == trace.KindChurn {
			churn[e.Note]++
		}
	}
	if churn["drop_pending"] == 0 || churn["join"] == 0 {
		t.Fatalf("no churn exercised: %v", churn)
	}
	if st := nb.Faults.Stats(); st.FetchFailures+st.PushFailures == 0 {
		t.Fatalf("no link fault exercised: %+v", st)
	}
	if len(nb.wireRefs) == 0 {
		t.Fatal("no wire reference held: the v2 link never ran")
	}
	for id, sub := range nb.subs {
		for _, p := range sub.Params() {
			if p.G != nil {
				t.Fatalf("device %d sits in the pool unparked (gradient of %s alive)", id, p.Name)
			}
		}
	}
}
