package edgenet

import (
	"sync"
	"testing"

	"repro/internal/tensor"
)

// TestConcurrentClientsRace hammers one server with many concurrent TCP
// clients running the full protocol cycle (hello, sub-model fetch, update
// push, stats poll). Under `go test -race` this is the regression gate for
// the connection-handler state the ISSUE's goleak/maporder checks guard
// statically: shared aggregation buffers, traffic counters, and the
// accept-loop WaitGroup.
func TestConcurrentClientsRace(t *testing.T) {
	cloud := buildModel(42)
	srv := NewServer(cloud, 4)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const devices = 8
	var wg sync.WaitGroup
	errs := make(chan error, devices)
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			skeleton := buildModel(42)
			cl, err := Dial(addr, id, skeleton)
			if err != nil {
				errs <- err
				return
			}
			defer func() { _ = cl.Close() }()
			if err := cl.Hello(); err != nil {
				errs <- err
				return
			}
			imp := uniformImportance(skeleton)
			sub, err := cl.FetchSubModel(imp, looseBudget())
			if err != nil {
				errs <- err
				return
			}
			if err := cl.PushUpdate(sub, imp, 1.0); err != nil {
				errs <- err
				return
			}
			if _, err := cl.Stats(); err != nil {
				errs <- err
				return
			}
		}(d)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	srv.FlushAggregation()
	st := srv.StatsSnapshot()
	if st.UpdatesReceived != devices {
		t.Fatalf("UpdatesReceived = %d, want %d", st.UpdatesReceived, devices)
	}
	if st.SubModelsServed != devices {
		t.Fatalf("SubModelsServed = %d, want %d", st.SubModelsServed, devices)
	}
}

// TestConcurrentClientsStatefulModelRace is TestConcurrentClientsRace for a
// model with state. buildModel's MLP has no BatchNorm, so with it -race never
// sees a state tensor: a handler that read the cloud's running statistics
// outside s.mu — building a push's sub-model before taking the lock, say —
// would race AggregateModuleWise's writes to them and pass every other test
// here. Eight clients fetch and push repeatedly while every second push
// aggregates, over a conv model whose stem carries a BatchNorm.
func TestConcurrentClientsStatefulModelRace(t *testing.T) {
	const devices, rounds, seed = 8, 12, 71
	cloud := buildStatefulModel(seed)
	srv := NewServer(cloud, 2)
	imp := uniformImportance(cloud)

	var wg sync.WaitGroup
	errs := make(chan error, devices)
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := pipePair(t, srv, buildStatefulModel(seed))
			cl.DeviceID = id
			if err := cl.Hello(); err != nil {
				errs <- err
				return
			}
			rng := tensor.NewRNG(int64(seed + id))
			for r := 0; r < rounds; r++ {
				sub, err := cl.FetchSubModel(imp, looseBudget())
				if err != nil {
					errs <- err
					return
				}
				perturb(rng, sub)
				if err := cl.PushUpdate(sub, imp, float64(1+id)); err != nil {
					errs <- err
					return
				}
			}
		}(d)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := srv.StatsSnapshot()
	if st.UpdatesReceived != devices*rounds || st.Aggregations != devices*rounds/2 {
		t.Fatalf("%d updates and %d aggregations for %d pushes at aggregateEvery = 2", st.UpdatesReceived, st.Aggregations, devices*rounds)
	}
	for _, ts := range modelTensors(cloud) {
		if ts.HasNaN() {
			t.Fatal("cloud model went NaN under concurrent aggregation")
		}
	}
}
