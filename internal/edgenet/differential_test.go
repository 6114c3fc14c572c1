package edgenet

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/modular"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// buildStatefulModel is the smallest conv model the builders make. Its stem
// carries a BatchNorm, so — unlike buildModel's MLP — its backbone vector has
// a tail of running statistics and aggregation writes state tensors. The
// statistics are randomized: fresh ones are all 0 and 1.
func buildStatefulModel(seed int64) *modular.Model {
	rng := tensor.NewRNG(seed)
	cfg := modular.Config{ModulesPerLayer: 3, TopK: 1, EmbedDim: 4, ResidualModules: true, MinShrink: 0.5, MaxShrink: 1}
	m := modular.NewModularCNN(rng, 1, 4, 2, []modular.ConvStage{{OutC: 2, Stride: 1}}, 3, cfg)
	for _, st := range nn.LayerStates(m.Stem) {
		rng.FillNormal(st, 1, 0.25)
	}
	return m
}

// perturb stands in for local training: it moves every parameter and every
// stem and head statistic of a fetched sub-model.
func perturb(rng *tensor.RNG, sub *modular.SubModel) {
	vec := sub.BackboneVector()
	for i := range vec {
		vec[i] += float32(0.05 * rng.NormFloat64())
	}
	sub.LoadBackboneVector(vec)
}

// modelTensors lists every tensor aggregation can write: backbone parameters,
// then the states of stem, every module and head.
func modelTensors(m *modular.Model) []*tensor.Tensor {
	var ts []*tensor.Tensor
	for _, p := range m.BackboneParams() {
		ts = append(ts, p.W)
	}
	ts = append(ts, nn.LayerStates(m.Stem)...)
	for _, layer := range m.Layers {
		for _, mod := range layer.Modules {
			ts = append(ts, nn.LayerStates(mod)...)
		}
	}
	return append(ts, nn.LayerStates(m.Head)...)
}

func requireSameModel(t *testing.T, when string, got, want *modular.Model) {
	t.Helper()
	gt, wt := modelTensors(got), modelTensors(want)
	if len(gt) != len(wt) {
		t.Fatalf("%s: %d tensors vs %d", when, len(gt), len(wt))
	}
	for i := range wt {
		for j := range wt[i].Data {
			if math.Float32bits(gt[i].Data[j]) != math.Float32bits(wt[i].Data[j]) {
				t.Fatalf("%s: tensor %d element %d is %v, replay has %v", when, i, j, gt[i].Data[j], wt[i].Data[j])
			}
		}
	}
}

// TestServerPushesMatchExtractLoadReplay is the differential for the server's
// push path: one scripted sequence of full, dense-delta and top-k-delta
// pushes at two chunk sizes, aggregating every third, must leave the cloud
// model — parameters and running statistics — bit for bit where a replay
// through the path the server used to take leaves its twin: Extract a
// trainable clone, LoadBackboneVector the decoded upload into it,
// AggregateModuleWise.
func TestServerPushesMatchExtractLoadReplay(t *testing.T) {
	const seed, every = 61, 3
	cloud, oracle := buildStatefulModel(seed), buildStatefulModel(seed)
	srv := NewServer(cloud, every)
	imp := uniformImportance(cloud)
	dial := func(id int, opts WireOpts) *EdgeClient {
		cl := pipePair(t, srv, buildStatefulModel(seed))
		cl.DeviceID, cl.WireOpts = id, opts
		if err := cl.Hello(); err != nil {
			t.Fatal(err)
		}
		return cl
	}
	plain := dial(1, WireOpts{})
	dense := dial(2, WireOpts{Chunk: 16})
	topk := dial(3, WireOpts{Chunk: 16, TopK: 0.25})

	rng := tensor.NewRNG(3)
	var pending []*modular.Update
	pushes := 0
	push := func(cl *EdgeClient, sub *modular.SubModel, weight float64) {
		t.Helper()
		// What the server will decode. The codec is a pure function, so the
		// test runs it on the inputs PushUpdate is about to give it.
		base := cl.ref.Base(sub.Mapping)
		landed, err := DecodeVec(EncodeVec(sub.BackboneVector(), base, cl.WireOpts), base)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.PushUpdate(sub, imp, weight); err != nil {
			t.Fatal(err)
		}
		pushes++
		osub := oracle.Extract(sub.Mapping)
		osub.LoadBackboneVector(landed)
		pending = append(pending, &modular.Update{Sub: osub, Importance: imp, Weight: weight})
		if len(pending) == every {
			oracle.AggregateModuleWise(pending)
			pending = nil
		}
		requireSameModel(t, fmt.Sprintf("after push %d (device %d)", pushes, cl.DeviceID), cloud, oracle)
	}
	fetch := func(cl *EdgeClient, b modular.Budget) *modular.SubModel {
		t.Helper()
		sub, err := cl.FetchSubModel(imp, b)
		if err != nil {
			t.Fatal(err)
		}
		perturb(rng, sub)
		return sub
	}

	for round := 0; round < 4; round++ {
		for i, cl := range []*EdgeClient{plain, dense, topk} {
			push(cl, fetch(cl, looseBudget()), float64(10+5*i+round))
		}
		// A push that cannot be a delta: the client's reference moved on to
		// a narrower sub-model before the wide one is uploaded.
		wide := fetch(dense, looseBudget())
		narrow := looseBudget()
		narrow.MaxModules = 1
		if sub := fetch(dense, narrow); MappingEqual(sub.Mapping, wide.Mapping) {
			t.Fatalf("a one-module budget derived the full mapping %v", sub.Mapping)
		}
		push(dense, wide, 7)
	}

	st := srv.StatsSnapshot()
	if st.UpdatesReceived != int64(pushes) || st.Aggregations != int64(pushes/every) {
		t.Fatalf("server counted %d updates and %d aggregations for %d pushes", st.UpdatesReceived, st.Aggregations, pushes)
	}
	// 4 rounds × (dense + top-k) delta pushes, 4 full pushes, on top of the
	// fetches' own payloads.
	if st.WireDelta < 8 || st.WireFull < 4 || st.WireFallbacks != 0 {
		t.Fatalf("script did not exercise full and delta payloads: %+v", st)
	}
}
