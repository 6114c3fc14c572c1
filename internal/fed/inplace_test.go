package fed

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/data"
	"repro/internal/edgenet"
	"repro/internal/modular"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// legacyPull is the keep branch's refresh as it was while every reader got a
// copy: clone the held modules out of the cloud model (Extract stands in for
// the weights-only clone — the same weights and states, bit for bit), flatten
// the clone, exchange, copy the reconstruction back into the clone, blend
// from the clone.
func legacyPull(nb *Nebula, held *modular.SubModel, ref *wireRef) (int64, *wireRef) {
	cloud := nb.Model.Extract(held.Mapping)
	bytes, next := cloud.BackboneBytes(), (*wireRef)(nil)
	if nb.cfg.WireCompress {
		vec := cloud.BackboneVector()
		recon := make([]float32, len(vec))
		p := new(edgenet.Encoder).Exchange(vec, ref.base(cloud.Mapping), edgenet.WireOpts{}, recon)
		cloud.LoadBackboneVector(recon)
		bytes, next = p.WireBytes(), &wireRef{WireRef: edgenet.WireRef{Mapping: cloud.Mapping, Vec: recon}}
	}
	b := nb.PullBlend
	lp, cp := held.Params(), cloud.Params()
	for i := range lp {
		lp[i].W.Scale(1 - b)
		lp[i].W.AddScaled(b, cp[i].W)
	}
	ls, cs := held.AllStates(), cloud.AllStates()
	for i := range ls {
		ls[i].Scale(1 - b)
		ls[i].AddScaled(b, cs[i])
	}
	return bytes, next
}

// batchNormCNN is a small modular CNN whose stem and every module end in a
// BatchNorm, statistics randomized (fresh ones are all 0 and 1) — so the pull
// carries stem states in the vector's tail and module states beside it.
func batchNormCNN(seed int64) *modular.Model {
	rng := tensor.NewRNG(seed)
	cfg := modular.Config{ModulesPerLayer: 3, TopK: 2, EmbedDim: 4, MinShrink: 0.5, MaxShrink: 1}
	m := modular.NewModularCNN(rng, 2, 6, 4, []modular.ConvStage{{OutC: 4, Stride: 1}, {OutC: 4, Stride: 2}}, 3, cfg)
	for _, layer := range m.Layers {
		for i, mod := range layer.Modules {
			layer.Modules[i] = nn.NewSequential(mod, nn.NewBatchNorm(4))
		}
	}
	_, states := m.Selection(firstTwoModules(m))
	for _, st := range states {
		rng.FillNormal(st, 1, 0.2)
	}
	return m
}

func firstTwoModules(m *modular.Model) [][]int {
	active := make([][]int, len(m.Layers))
	for l := range active {
		active[l] = []int{0, 1}
	}
	return active
}

// noiseDataset is n samples of the given shape with labels in turn.
func noiseDataset(rng *tensor.RNG, shape []int, classes, n int) *data.Dataset {
	ds := data.NewDataset(shape, classes)
	for i := 0; i < n; i++ {
		x := make([]float32, ds.SampleLen())
		for j := range x {
			x[j] = float32(rng.NormFloat64())
		}
		ds.Add(x, i%classes)
	}
	return ds
}

// TestPullBlendReadsInPlace holds the refresh of a kept sub-model to the path
// it replaced, bit for bit — what the device holds afterwards, what the pull
// is charged, what reference both ends keep — on the exact and on the
// compressed link, for a full pull and for the delta pull after it; and checks
// what reading in place must not do: write the cloud model, or leave the
// device training inside its own reference.
func TestPullBlendReadsInPlace(t *testing.T) {
	har := HARTask(61, ScaleQuick)
	cases := []struct {
		name  string
		build func() *modular.Model
		train *data.Dataset
	}{
		{"har-mlp", func() *modular.Model { return har.BuildModular(tensor.NewRNG(62)) }, harFleet(tensor.NewRNG(63), har, 1, 3)[0].Dev.Train},
		{"batchnorm-cnn", func() *modular.Model { return batchNormCNN(64) }, noiseDataset(tensor.NewRNG(65), []int{2, 6, 6}, 3, 40)},
	}
	for _, tc := range cases {
		for _, compress := range []bool{false, true} {
			cfg := tinyCfg()
			cfg.WireCompress = compress
			nb := NewNebula(har, cfg)
			nb.Model = tc.build()
			active := firstTwoModules(nb.Model)
			got, want := nb.Model.Extract(active), nb.Model.Extract(active)
			var gotRef, wantRef *wireRef
			rng := tensor.NewRNG(66)
			for pull, what := range []string{"first pull (full)", "second pull (delta)"} {
				when := fmt.Sprintf("%s, WireCompress %v, %s", tc.name, compress, what)
				// Other devices' updates moved the cloud model since.
				params, states := nb.Model.Selection(active)
				for _, p := range params {
					for i := range p.W.Data {
						p.W.Data[i] += float32(0.05 * rng.NormFloat64())
					}
				}
				for _, st := range states {
					for i := range st.Data {
						st.Data[i] += float32(0.01 * rng.NormFloat64())
					}
				}
				before := cloudVector(nb.Model)
				if delta := gotRef.base(got.Mapping) != nil; delta != (compress && pull == 1) {
					t.Fatalf("%s: script wants a delta pull only second on the compressed link, reference says %v", when, delta)
				}

				gotBytes, gotNext := nb.pullBlend(new(edgenet.Encoder), got, gotRef)
				wantBytes, wantNext := legacyPull(nb, want, wantRef)
				if gotBytes != wantBytes {
					t.Fatalf("%s: charged %d B, the copying path %d B", when, gotBytes, wantBytes)
				}
				if !reflect.DeepEqual(subModelBits(got), subModelBits(want)) {
					t.Fatalf("%s: the device holds other bits than after the copying path", when)
				}
				if !sameBits(cloudVector(nb.Model), before) {
					t.Fatalf("%s: the pull wrote the cloud model", when)
				}
				if (gotNext != nil) != compress {
					t.Fatalf("%s: new reference %v", when, gotNext)
				}
				gotRef, wantRef = gotNext, wantNext

				// The device trains on; its reference stays what the wire delivered.
				TrainLayer(tensor.NewRNG(67), got, tc.train, 1, 0.05, 16, nil)
				TrainLayer(tensor.NewRNG(67), want, tc.train, 1, 0.05, 16, nil)
				got.Park()
				want.Park()
				if !reflect.DeepEqual(subModelBits(got), subModelBits(want)) {
					t.Fatalf("%s: training after the pull diverges from the copying path", when)
				}
				if compress && (!edgenet.MappingEqual(gotRef.Mapping, active) || !sameBits(gotRef.Vec, wantRef.Vec)) {
					t.Fatalf("%s: the reference is not the copying path's reconstruction after blend and training", when)
				}
			}
		}
	}
}

// TestWireRefMappingIsPrivate: a reference is immutable, the mapping of the
// sub-model it was built for is not (it is an exported slice its holder may
// edit); the reference must keep naming the structure its vector has.
func TestWireRefMappingIsPrivate(t *testing.T) {
	task := HARTask(71, ScaleQuick)
	cfg := tinyCfg()
	cfg.WireCompress = true
	nb := NewNebula(task, cfg)
	nb.Model = task.BuildModular(tensor.NewRNG(72))
	active := firstTwoModules(nb.Model)
	for _, link := range []struct {
		what string
		down func(*modular.SubModel) (int64, *wireRef)
	}{
		{"new structure", func(sub *modular.SubModel) (int64, *wireRef) {
			return wireDownlink(new(edgenet.Encoder), sub, nil, edgenet.WireOpts{})
		}},
		{"kept structure", func(sub *modular.SubModel) (int64, *wireRef) {
			return nb.pullBlend(new(edgenet.Encoder), sub, nil)
		}},
	} {
		sub := nb.Model.Extract(active)
		_, ref := link.down(sub)
		for _, idx := range sub.Mapping {
			for j := range idx {
				idx[j] = -1
			}
		}
		if base := ref.Base(active); base == nil || len(base) != len(ref.Vec) {
			t.Errorf("%s: editing the sub-model's mapping changed what its reference is a base for (reference mapping %v)", link.what, ref.Mapping)
		}
	}
}

// deviceRoundAllocBudget is TestDeviceRoundAllocBudget's bound, in bytes
// allocated per backbone byte: 0.24 measured, 2.7 while each crossing
// allocated its reconstruction and its encoder, 6.8 while the link and the
// blend still copied what they read.
const deviceRoundAllocBudget = 0.5

// TestDeviceRoundAllocBudget bounds what one steady-state round of a device
// that keeps its sub-model allocates on the compressed link, top-k push
// included, as a multiple of its backbone bytes. Both reconstructions — the
// downlink's (the device's next reference) and the uplink's (what aggregation
// reads) — are arrays the arena lends and gets back, and the worker's Encoder
// keeps the int8 codes, so training, derivation and headers are the budget. A
// vector-sized array allocated per round — a reconstruction or codes made
// afresh, a copy of the weights for a single reader — costs a quarter or more
// on its own, which is what this budget is here to catch.
func TestDeviceRoundAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are the race detector's under -race")
	}
	task := HARTask(81, ScaleQuick)
	cfg := tinyCfg()
	cfg.LocalEpochs, cfg.DevicesPerRound, cfg.Workers = 1, 1, 1
	cfg.WireCompress, cfg.WireTopK = true, 0.25
	nb := NewNebula(task, cfg)
	// Wide enough that the backbone, not the bookkeeping, is what a round moves.
	mcfg := modular.Config{ModulesPerLayer: 8, TopK: 2, EmbedDim: 16, ResidualModules: true, MinShrink: 0.25, MaxShrink: 0.5}
	nb.Model = modular.NewModularMLP(tensor.NewRNG(82), 64, 256, 6, mcfg)
	rng := tensor.NewRNG(83)
	clients := harFleet(rng, task, 1, 3)
	id := clients[0].Dev.ID
	for i := 0; i < 5; i++ {
		nb.Round(rng, clients)
	}
	held := nb.SubModelOf(id)
	// A collection empties the arenas, and refilling one is a whole size class
	// of the flatten buffer — up to twice the backbone, whenever the collector
	// happens to run. Steady state is the warm arena.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		nb.Round(rng, clients)
	}
	runtime.ReadMemStats(&after)
	if nb.SubModelOf(id) != held || nb.Costs().BytesUp == 0 {
		t.Fatal("the measured rounds did not keep the device's sub-model and push it")
	}
	backbone := held.BackboneBytes()
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(n*backbone)
	t.Logf("%.2f bytes allocated per backbone byte (%d KiB backbone)", perByte, backbone/1024)
	if perByte > deviceRoundAllocBudget {
		t.Fatalf("one device-round allocates %.2f × its backbone bytes, budget %.1f", perByte, deviceRoundAllocBudget)
	}
}
