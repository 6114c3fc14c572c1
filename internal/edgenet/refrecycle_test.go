package edgenet

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/modular"
	"repro/internal/tensor"
)

// TestSharedDeviceIDRecyclesReferencesAfterLastReader drives two connections
// under one DeviceID — as a retry on a new connection shares it with the
// request it repeats — through interleaved fetches and pushes. Each fetch
// replaces the device's server reference while the other connection may be
// encoding a fetch or decoding a push against the one it replaces, and
// TestMain NaN-fills every array on its way back to the arena: an array
// returned before its last reader finished would turn a reconstruction or a
// landed update NaN, or hand the reader the next reference's numbers. So the
// cloud model stays finite, every reference a client holds equals the
// server's bit for bit whenever the server still holds that version, and in
// the end the one live reference is all the metered bytes and every replaced
// one has been recycled.
func TestSharedDeviceIDRecyclesReferencesAfterLastReader(t *testing.T) {
	const device, rounds = 7, 40
	build := func() *modular.Model {
		cfg := modular.Config{ModulesPerLayer: 8, TopK: 2, EmbedDim: 16, ResidualModules: true, MinShrink: 0.25, MaxShrink: 0.5}
		return modular.NewModularMLP(tensor.NewRNG(17), 32, 128, 10, cfg)
	}
	cloud := build()
	srv := NewServer(cloud, 4)
	imp := uniformImportance(cloud)
	var compared atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		cl := pipePair(t, srv, build())
		cl.DeviceID = device
		if err := cl.Hello(); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(rng *tensor.RNG) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sub, err := cl.FetchSubModel(imp, looseBudget())
				if err != nil {
					t.Error(err)
					return
				}
				srv.mu.Lock()
				if ref := srv.devices[device].ref; ref.Version == cl.ref.Version {
					if !sameBits(ref.Vec, cl.ref.Vec) {
						t.Errorf("round %d: client and server hold other bits for version %d", r, ref.Version)
					}
					compared.Add(1)
				}
				srv.mu.Unlock()
				perturb(rng, sub)
				if err := cl.PushUpdate(sub, imp, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(tensor.NewRNG(int64(100 + c)))
	}
	wg.Wait()
	srv.FlushAggregation()
	for _, p := range cloud.Params() {
		if !allFinite(p.W.Data) {
			t.Fatalf("cloud parameter %s is not finite", p.Name)
		}
	}
	if compared.Load() == 0 {
		t.Fatal("no fetch found the server still at its version; nothing compared")
	}
	st := srv.StatsSnapshot()
	// The two clients number their pushes alike, so one device's Seq repeats:
	// every push is decoded, then landed or deduplicated.
	if st.UpdatesReceived+st.Dedups != 2*rounds {
		t.Fatalf("%d updates landed and %d deduplicated, want %d pushes", st.UpdatesReceived, st.Dedups, 2*rounds)
	}
	srv.mu.Lock()
	live := srv.devices[device].ref
	held := float64(4 * cap(live.buf.Data))
	srv.mu.Unlock()
	if got := srv.metrics.refBytes.Value(); got != held {
		t.Fatalf("reference bytes gauge %v, the one live reference holds %v", got, held)
	}
	if got := srv.metrics.refsRecycled.Value(); got != 2*rounds-1 {
		t.Fatalf("%v references recycled, want every replaced one: %d", got, 2*rounds-1)
	}
}

// TestClientRecyclesReplacedReference is the client's twin of
// TestSharedDeviceIDRecyclesReferencesAfterLastReader. One client's sub-model
// structure moves between fetches — every module, then the one forced module
// a layer, then every module again — so a full fetch replaces its reference
// each time, and in between a delta fetch lands on the live reference in
// place. TestMain NaN-fills every array on its way back to the arena. The
// replaced reference must hand its array back, and every fetch and push after
// it must reconstruct, bit for bit, what the server holds for that version: a
// reference released while still read, or a fetch decoded onto a recycled
// array, would show as NaN or other bits.
func TestClientRecyclesReplacedReference(t *testing.T) {
	build := func() *modular.Model {
		cfg := modular.Config{ModulesPerLayer: 8, TopK: 2, EmbedDim: 16, ResidualModules: true, MinShrink: 0.25, MaxShrink: 0.5}
		return modular.NewModularMLP(tensor.NewRNG(17), 32, 128, 10, cfg)
	}
	cloud := build()
	// Updates stay pending until the test has read the server's decode.
	srv := NewServer(cloud, 1<<20)
	cl := pipePair(t, srv, build())
	if err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	imp := uniformImportance(cloud)
	rng := tensor.NewRNG(19)
	steps := []struct {
		budget modular.Budget
		delta  bool
	}{
		{looseBudget(), false},
		{looseBudget(), true},
		{modular.Budget{}, false}, // the structure moves
		{modular.Budget{}, true},
		{looseBudget(), false}, // and moves back
		{looseBudget(), true},
	}
	for i, step := range steps {
		before := cl.ref
		sub, err := cl.FetchSubModel(imp, step.budget)
		if err != nil {
			t.Fatal(err)
		}
		if inPlace := before != nil && cl.ref == before; inPlace != step.delta {
			t.Fatalf("step %d: fetch landed on the live reference %v, script wants a delta %v", i, inPlace, step.delta)
		}
		if before != nil && !step.delta && (before.Vec != nil || before.buf != nil) {
			t.Fatalf("step %d: the reference a full fetch replaced still holds its array", i)
		}
		srv.mu.Lock()
		held := srv.devices[cl.DeviceID].ref
		same := held.Version == cl.ref.Version && sameBits(held.Vec, cl.ref.Vec)
		srv.mu.Unlock()
		if !same {
			t.Fatalf("step %d: client reference (version %d) is not the server's (version %d) bit for bit", i, cl.ref.Version, held.Version)
		}

		perturb(rng, sub)
		vec := sub.BackboneVector()
		want, err := DecodeVec(EncodeVec(vec, cl.ref.Vec, WireOpts{}), cl.ref.Vec)
		if err != nil {
			t.Fatal(err)
		}
		deltas := srv.metrics.wireDelta.Value()
		if err := cl.PushUpdate(sub, imp, 1); err != nil {
			t.Fatal(err)
		}
		if srv.metrics.wireDelta.Value() != deltas+1 {
			t.Fatalf("step %d: push was not a delta against the reference just fetched", i)
		}
		srv.mu.Lock()
		got := srv.pending[len(srv.pending)-1].update.Sub.BackboneVector()
		srv.mu.Unlock()
		if !allFinite(got) || !sameBits(got, want) {
			t.Fatalf("step %d: the server decoded the push to other bits than the client's reference codes", i)
		}
		srv.FlushAggregation() // the cloud moves before the next fetch
	}
}

func allFinite(v []float32) bool {
	for _, x := range v {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return false
		}
	}
	return true
}
