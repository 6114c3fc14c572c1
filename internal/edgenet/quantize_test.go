package edgenet

import (
	"math"
	"testing"
)

// TestQuantizedFetchAndPush is the v2 round-trip closeness test: after Hello
// the link carries int8 chunk payloads both ways, and what the client decodes
// stays within one quantization step of the cloud's weights.
func TestQuantizedFetchAndPush(t *testing.T) {
	cloud := buildModel(10)
	skeleton := buildModel(10)
	srv := NewServer(cloud, 1)
	cl := pipePair(t, srv, skeleton)
	if err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	imp := uniformImportance(cloud)
	sub, err := cl.FetchSubModel(imp, looseBudget())
	if err != nil {
		t.Fatal(err)
	}
	// Quantized weights must be close to the cloud's originals.
	want := cloud.Extract(sub.Mapping).BackboneVector()
	got := sub.BackboneVector()
	var lo, hi float32
	for _, v := range want {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	bound := float64(hi-lo) / 255 // per-chunk ranges are tighter than this
	for i := range want {
		if math.Abs(float64(want[i]-got[i])) > bound {
			t.Fatalf("quantized weight %d error %v exceeds bound %v", i, want[i]-got[i], bound)
		}
	}
	// Push works end to end (server dequantizes and aggregates).
	for _, p := range sub.Layers[0].Modules[0].Params() {
		p.W.Fill(0.25)
	}
	if err := cl.PushUpdate(sub, imp, 5); err != nil {
		t.Fatal(err)
	}
	if st := srv.StatsSnapshot(); st.UpdatesReceived != 1 || st.Aggregations != 1 {
		t.Fatalf("stats: %+v", st)
	}
}
