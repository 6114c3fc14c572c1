package edgenet

import (
	"sync"
	"testing"
)

// TestConcurrentQuantizedPushes is the regression test for the lock-scope
// fix in acceptUpdate: dequantization is CPU-heavy and must run before s.mu
// is taken, so concurrent quantized pushes from many devices do not
// serialize behind one large update. Every push must still be applied
// exactly once (the dedup bookkeeping stayed under the lock).
func TestConcurrentQuantizedPushes(t *testing.T) {
	const devices = 8
	cloud := buildModel(20)
	srv := NewServer(cloud, devices)
	imp := uniformImportance(cloud)

	var wg sync.WaitGroup
	errs := make(chan error, devices)
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			cl := pipePair(t, srv, buildModel(20))
			cl.DeviceID = d
			if err := cl.Hello(); err != nil {
				errs <- err
				return
			}
			sub, err := cl.FetchSubModel(imp, looseBudget())
			if err != nil {
				errs <- err
				return
			}
			for _, p := range sub.Layers[0].Modules[0].Params() {
				p.W.Fill(float32(d) / devices)
			}
			errs <- cl.PushUpdate(sub, imp, 1)
		}(d)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := srv.StatsSnapshot()
	if st.UpdatesReceived != devices {
		t.Fatalf("updates received = %d, want %d", st.UpdatesReceived, devices)
	}
	if st.Aggregations != 1 {
		t.Fatalf("aggregations = %d, want 1 (aggregateEvery = %d)", st.Aggregations, devices)
	}
}
