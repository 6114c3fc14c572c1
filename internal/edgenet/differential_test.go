package edgenet

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
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

// modelDiff names the first bit in which two models differ, or "".
func modelDiff(got, want *modular.Model) string {
	gt, wt := modelTensors(got), modelTensors(want)
	if len(gt) != len(wt) {
		return fmt.Sprintf("%d tensors vs %d", len(gt), len(wt))
	}
	for i := range wt {
		for j := range wt[i].Data {
			if math.Float32bits(gt[i].Data[j]) != math.Float32bits(wt[i].Data[j]) {
				return fmt.Sprintf("tensor %d element %d is %v, replay has %v", i, j, gt[i].Data[j], wt[i].Data[j])
			}
		}
	}
	return ""
}

func requireSameModel(t *testing.T, when string, got, want *modular.Model) {
	t.Helper()
	if diff := modelDiff(got, want); diff != "" {
		t.Fatalf("%s: %s", when, diff)
	}
}

// TestServerPushesMatchExtractLoadReplay is the differential for the server's
// push path: one scripted sequence of full, dense-delta and top-k-delta
// pushes, aggregating every third, must leave the cloud
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
	dense := dial(2, WireOpts{})
	topk := dial(3, WireOpts{TopK: 0.25})

	rng := tensor.NewRNG(3)
	var pending []queuedUpdate
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
		pending = append(pending, queuedUpdate{cl.DeviceID, cl.seq, &modular.Update{Sub: osub, Importance: imp, Weight: weight}, nil})
		if len(pending) == every {
			foldReplay(oracle, pending)
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
		// A budget of nothing affords each layer's forced module alone.
		if sub := fetch(dense, modular.Budget{}); slices.EqualFunc(sub.Mapping, wide.Mapping, slices.Equal[[]int]) {
			t.Fatalf("an empty budget derived the full mapping %v", sub.Mapping)
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

// TestConcurrentDevicesMatchSerialReplay is the stateful test of the server's
// borrowed push vectors: devices fetch and push concurrently while updates
// queue, aggregate (every push, every third) and give their arrays back, with
// the paths that borrow and do not queue mixed in — a replayed Seq, a NeedFull
// bounce off an evicted reference, a push whose frames do not validate and one
// whose vector does not fit its structure. The cloud model must end bit for
// bit where a serial Extract + LoadBackboneVector replay of the accepted
// pushes leaves its twin (the package runs with released arrays poisoned, so
// a late read is a NaN here), and every borrowed byte must be back.
func TestConcurrentDevicesMatchSerialReplay(t *testing.T) {
	for _, every := range []int{1, 3} {
		t.Run(fmt.Sprintf("aggregate every %d", every), func(t *testing.T) {
			const seed, devices, rounds = 67, 4, 5
			live := tensor.ScratchLiveBytes()
			cloud, oracle := buildStatefulModel(seed), buildStatefulModel(seed)
			srv := NewServer(cloud, every)
			imp := uniformImportance(cloud)
			clients := make([]*EdgeClient, devices)
			for d := range clients {
				cl := pipePair(t, srv, buildStatefulModel(seed))
				cl.DeviceID = d + 1
				cl.WireOpts = []WireOpts{{}, {TopK: 0.25}}[d%2]
				if err := cl.Hello(); err != nil {
					t.Fatal(err)
				}
				clients[d] = cl
			}
			raw := rawServerConn(t, srv)

			// The replay needs the order updates were queued in, which the
			// server does not report: pushes take turns. Fetches, and every
			// push against the other devices' fetches, run concurrently.
			turn := make(chan struct{}, 1)
			var pending []queuedUpdate
			land := func(cl *EdgeClient, mapping [][]int, vec []float32, weight float64) {
				osub := oracle.Extract(mapping)
				osub.LoadBackboneVector(vec)
				pending = append(pending, queuedUpdate{cl.DeviceID, cl.seq, &modular.Update{Sub: osub, Importance: imp, Weight: weight}, nil})
				if len(pending) == every {
					foldReplay(oracle, pending)
					pending = nil
				}
			}
			// refused sends one push no EdgeClient would and wants an error
			// reply over a connection that survives.
			refused := func(what string, active [][]int, p *WirePayload) {
				req := &Request{Kind: KindPushUpdate, DeviceID: 99, Seq: 1, Active: active, Importance: imp, Weight: 1, Payload: &p.Header}
				if err := raw.sendMessage(req, p.Chunks, func() {}); err != nil {
					t.Error(err)
					return
				}
				var resp Response
				if err := raw.Recv(&resp); err != nil || resp.OK {
					t.Errorf("%s: reply %+v, %v", what, resp, err)
				}
			}

			var wg sync.WaitGroup
			for d, cl := range clients {
				wg.Add(1)
				go func(d int, cl *EdgeClient) {
					defer wg.Done()
					rng := tensor.NewRNG(int64(100 + d))
					for r := 0; r < rounds; r++ {
						sub, err := cl.FetchSubModel(imp, looseBudget())
						if err != nil {
							t.Error(err)
							return
						}
						perturb(rng, sub)
						weight := float64(5 + d + r)

						turn <- struct{}{}
						if d == 0 && r == 2 {
							// The server loses this device's reference: the
							// delta push bounces and goes again whole.
							srv.mu.Lock()
							rec := srv.devices[cl.DeviceID]
							rec.ref = nil
							srv.devices[cl.DeviceID] = rec
							srv.mu.Unlock()
						}
						base := cl.ref.Base(sub.Mapping)
						if d == 0 && r == 2 {
							base = nil
						}
						vec := sub.BackboneVector()
						want, err := DecodeVec(EncodeVec(vec, base, cl.WireOpts), base)
						if err == nil {
							err = cl.PushUpdate(sub, imp, weight)
						}
						if err == nil {
							land(cl, sub.Mapping, want, weight)
							// Held now, not at the end: a NaN the cloud serves
							// is one the devices push back to both models.
							if diff := modelDiff(cloud, oracle); diff != "" {
								err = fmt.Errorf("device %d round %d: %s", cl.DeviceID, r, diff)
							}
						}
						if err == nil && d == 1 && r == 1 {
							cl.seq-- // the same update again, as a retry whose reply was lost
							err = cl.PushUpdate(sub, imp, weight)
						}
						if d == 2 && r == 3 {
							short := EncodeVec(vec, nil, WireOpts{})
							short.Chunks[0].Q8.Codes = short.Chunks[0].Q8.Codes[1:]
							refused("a chunk one code short", sub.Mapping, short)
							narrow := make([][]int, len(sub.Mapping))
							for l := range narrow {
								narrow[l] = sub.Mapping[l][:1]
							}
							refused("a vector longer than its structure", narrow, EncodeVec(vec, nil, WireOpts{}))
						}
						<-turn
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(d, cl)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			srv.FlushAggregation()
			if len(pending) > 0 {
				foldReplay(oracle, pending)
			}
			requireSameModel(t, "after the flush", cloud, oracle)
			st := srv.StatsSnapshot()
			if st.UpdatesReceived != devices*rounds || st.Dedups != 1 || st.WireFallbacks != 1 {
				t.Fatalf("server counted %+v for %d pushes, one replay and one bounce", st, devices*rounds)
			}
			srv.Close()
			if got := tensor.ScratchLiveBytes(); got != live {
				t.Fatalf("%d borrowed bytes not returned", got-live)
			}
		})
	}
}

// foldReplay aggregates a replayed batch into m as the server folds one: by
// (DeviceID, Seq), whatever order the pushes were accepted in.
func foldReplay(m *modular.Model, batch []queuedUpdate) {
	batch = slices.Clone(batch)
	slices.SortFunc(batch, func(a, b queuedUpdate) int {
		return cmp.Or(cmp.Compare(a.device, b.device), cmp.Compare(a.seq, b.seq))
	})
	updates := make([]*modular.Update, len(batch))
	for i, q := range batch {
		updates[i] = q.update
	}
	m.AggregateModuleWise(updates)
}

// fetchPerturbed connects device id to srv, fetches its sub-model and moves
// it as local training would, returning the client, the sub-model and the
// vector the server will decode from its push.
func fetchPerturbed(t *testing.T, srv *Server, seed int64, id int, imp [][]float64) (*EdgeClient, *modular.SubModel, []float32) {
	t.Helper()
	cl := pipePair(t, srv, buildStatefulModel(seed))
	cl.DeviceID = id
	if err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	sub, err := cl.FetchSubModel(imp, looseBudget())
	if err != nil {
		t.Fatal(err)
	}
	perturb(tensor.NewRNG(int64(100+id)), sub)
	base := cl.ref.Base(sub.Mapping)
	want, err := DecodeVec(EncodeVec(sub.BackboneVector(), base, cl.WireOpts), base)
	if err != nil {
		t.Fatal(err)
	}
	return cl, sub, want
}

// TestFoldIgnoresArrivalOrder: two servers accept the same pushes, one batch
// of them, in opposite arrival orders. The fold goes by (DeviceID, Seq), so
// both clouds end with the same bits.
func TestFoldIgnoresArrivalOrder(t *testing.T) {
	const seed, devices = 71, 3
	run := func(order ...int) *modular.Model {
		cloud := buildStatefulModel(seed)
		srv := NewServer(cloud, devices)
		defer srv.Close()
		imp := uniformImportance(cloud)
		clients := make([]*EdgeClient, devices)
		subs := make([]*modular.SubModel, devices)
		for d := range clients {
			clients[d], subs[d], _ = fetchPerturbed(t, srv, seed, d+1, imp)
		}
		for _, d := range order {
			if err := clients[d].PushUpdate(subs[d], imp, float64(5+d)); err != nil {
				t.Fatal(err)
			}
		}
		if st := srv.StatsSnapshot(); st.UpdatesReceived != devices || st.Aggregations != 1 {
			t.Fatalf("server counted %+v for one batch of %d pushes", st, devices)
		}
		return cloud
	}
	requireSameModel(t, "pushes accepted in reversed order", run(2, 1, 0), run(0, 1, 2))
}

// TestFlushAfterCloseFoldsEveryAcceptedUpdate: Close waits for every handler,
// so a FlushAggregation after it folds every update the server accepted —
// nebula-cloud's shutdown order, which its checkpoint relies on — and every
// borrowed array goes back.
func TestFlushAfterCloseFoldsEveryAcceptedUpdate(t *testing.T) {
	const seed, devices = 73, 3
	live := tensor.ScratchLiveBytes()
	cloud, oracle := buildStatefulModel(seed), buildStatefulModel(seed)
	srv := NewServer(cloud, 100)
	imp := uniformImportance(cloud)
	batch := make([]queuedUpdate, devices)
	func() {
		defer srv.Close()
		var wg sync.WaitGroup
		for d := range devices {
			cl, sub, want := fetchPerturbed(t, srv, seed, d+1, imp)
			osub := oracle.Extract(sub.Mapping)
			osub.LoadBackboneVector(want)
			batch[d] = queuedUpdate{cl.DeviceID, 1, &modular.Update{Sub: osub, Importance: imp, Weight: float64(5 + d)}, nil}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := cl.PushUpdate(sub, imp, float64(5+d)); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}()
	srv.FlushAggregation()
	if st := srv.StatsSnapshot(); st.UpdatesReceived != devices || st.Aggregations != 1 {
		t.Fatalf("server counted %+v for %d pushes and one flush", st, devices)
	}
	foldReplay(oracle, batch)
	requireSameModel(t, "after close and flush", cloud, oracle)
	if got := tensor.ScratchLiveBytes(); got != live {
		t.Fatalf("%d borrowed bytes not returned", got-live)
	}
}
