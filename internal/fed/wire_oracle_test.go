package fed

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"slices"
	"testing"

	"repro/internal/edgenet"
	"repro/internal/modular"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// wireTap is the client end of a pipe that keeps a copy of every byte that
// crosses it, so the test can decode the payloads the transport really sent.
type wireTap struct {
	net.Conn
	down, up bytes.Buffer // server→client, client→server
}

func (w *wireTap) Read(p []byte) (int, error) {
	n, err := w.Conn.Read(p)
	w.down.Write(p[:n])
	return n, err
}

func (w *wireTap) Write(p []byte) (int, error) {
	w.up.Write(p)
	return w.Conn.Write(p)
}

// tappedPayload reads the next protocol message from one direction of the
// tap with the transport's own codec — env is its envelope, header picks the
// payload header out of it — and returns the payload that followed, valid
// until the next one is read from that direction.
func tappedPayload(t *testing.T, dec *edgenet.Codec, env any, header func() *edgenet.WireHeader) *edgenet.WirePayload {
	t.Helper()
	if err := dec.Recv(env); err != nil {
		t.Fatal(err)
	}
	h := header()
	if h == nil {
		t.Fatalf("message carries no payload: %+v", env)
	}
	p, err := dec.RecvPayload(h, h.Len)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// cloudVector is everything aggregation writes: backbone parameters, then
// the running statistics of stem, every module and head.
func cloudVector(m *modular.Model) []float32 {
	states := nn.LayerStates(m.Stem)
	for _, layer := range m.Layers {
		for _, mod := range layer.Modules {
			states = append(states, nn.LayerStates(mod)...)
		}
	}
	states = append(states, nn.LayerStates(m.Head)...)
	return nn.FlattenVector(m.BackboneParams(), states)
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

// TestSimulatedLinkIsTheTransportsOracle runs one scripted device twice over
// twin cloud models — through a pipe client and the real server aggregating
// every update, and through the simulator's pieces (Derive, Extract,
// wireDownlink, wireUplink, AggregateModuleWise) — and holds the two to each
// other at the level of the delta reference: what the device is handed, when
// a payload is full and when delta, what it costs, and what the cloud becomes.
func TestSimulatedLinkIsTheTransportsOracle(t *testing.T) {
	build := func() *modular.Model {
		rng := tensor.NewRNG(81)
		// Modules of one size, so a structure can move without the vector's
		// length giving it away.
		cfg := modular.Config{ModulesPerLayer: 3, TopK: 1, EmbedDim: 4, MinShrink: 1, MaxShrink: 1}
		m := modular.NewModularCNN(rng, 1, 4, 2, []modular.ConvStage{{OutC: 2, Stride: 1}}, 3, cfg)
		// The stem carries a BatchNorm; fresh statistics are all 0 and 1.
		for _, st := range nn.LayerStates(m.Stem) {
			rng.FillNormal(st, 1, 0.25)
		}
		return m
	}
	cloud, twin := build(), build()
	srv := edgenet.NewServer(cloud, 1)
	serverEnd, clientEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverEnd)
		_ = serverEnd.Close()
	}()
	tap := &wireTap{Conn: clientEnd}
	defer func() { _ = clientEnd.Close(); <-done }()
	cl := edgenet.NewPipeClient(tap, 1, build())
	upOpts := edgenet.WireOpts{TopK: 0.25}
	cl.WireOpts = upOpts
	if err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	downDec, upDec := edgenet.NewCodec(&tap.down), edgenet.NewCodec(&tap.up)
	var helloReq edgenet.Request
	var helloResp edgenet.Response
	if err := upDec.Recv(&helloReq); err != nil {
		t.Fatal(err)
	}
	if err := downDec.Recv(&helloResp); err != nil {
		t.Fatal(err)
	}

	// uniform importance, and one that prefers each layer's last module.
	uniform, lastFirst := make([][]float64, len(cloud.Layers)), make([][]float64, len(cloud.Layers))
	for l := range uniform {
		n := cloud.Layers[l].N()
		uniform[l], lastFirst[l] = make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			uniform[l][i], lastFirst[l][i] = 1/float64(n), 0.1
		}
		lastFirst[l][n-1] = 0.8
	}
	loose := modular.Budget{CommBytes: 1e12, FwdFLOPs: 1e12, MemElems: 1e12}
	narrow := modular.Budget{} // affords each layer's forced module alone
	steps := []struct {
		imp      [][]float64
		budget   modular.Budget
		wantFull bool // the downlink; the push that follows always has its reference
	}{
		{uniform, loose, true},
		{uniform, loose, false},
		{uniform, loose, false},
		{uniform, narrow, true},   // the structure moves and the vector shrinks
		{lastFirst, narrow, true}, // the structure moves and the vector's length stays
	}

	rng := tensor.NewRNG(7)
	var enc edgenet.Encoder // the simulator's worker keeps its sender, as the client keeps its own
	var ref *edgenet.WireRef
	var prev [][]int
	var prevLen int
	var full, delta int64
	count := func(isDelta bool) {
		if isDelta {
			delta++
		} else {
			full++
		}
	}
	for i, step := range steps {
		when, imp := fmt.Sprintf("step %d", i+1), step.imp

		// Downlink.
		active := twin.Derive(imp, step.budget, false)
		simSub := twin.Extract(active)
		simFull := ref.Base(active) == nil
		var simDown int64
		old := ref
		simDown, ref = wireDownlink(&enc, simSub, simSub.Backbone(), ref)
		old.Release() // replaced, as commitDevice hands it back
		sub, err := cl.FetchSubModel(imp, step.budget)
		if err != nil {
			t.Fatal(err)
		}
		// gob leaves fields a message omits as they were: a fresh value each.
		var fetchReq, pushReq edgenet.Request
		var fetchResp, pushResp edgenet.Response
		if err := upDec.Recv(&fetchReq); err != nil {
			t.Fatal(err)
		}
		down := tappedPayload(t, downDec, &fetchResp, func() *edgenet.WireHeader { return fetchResp.Payload })
		if simFull != step.wantFull || down.Header.Delta == simFull {
			t.Fatalf("%s: downlink full: script %v, simulator %v, transport %v", when, step.wantFull, simFull, !down.Header.Delta)
		}
		if i == len(steps)-1 && (slices.EqualFunc(active, prev, slices.Equal[[]int]) || len(ref.Vec) != prevLen) {
			t.Fatalf("%s: script wants a moved structure of unchanged length, has %v after %v, %d elements after %d", when, active, prev, len(ref.Vec), prevLen)
		}
		prev, prevLen = active, len(ref.Vec)
		if !slices.EqualFunc(sub.Mapping, active, slices.Equal[[]int]) {
			t.Fatalf("%s: transport derived %v, simulator %v", when, sub.Mapping, active)
		}
		if !sameBits(sub.BackboneVector(), ref.Vec) || !sameBits(simSub.BackboneVector(), ref.Vec) {
			t.Fatalf("%s: fetched backbone is not the simulated reconstruction", when)
		}
		if simDown != down.WireBytes() {
			t.Fatalf("%s: simulator charged %d B down, the payload is %d B", when, simDown, down.WireBytes())
		}
		count(down.Header.Delta)

		// Local training, stood in for by one perturbation applied to both.
		vec := simSub.BackboneVector()
		for j := range vec {
			vec[j] += float32(0.05 * rng.NormFloat64())
		}
		simSub.LoadBackboneVector(vec)
		sub.LoadBackboneVector(vec)

		// Uplink and aggregation.
		weight := float64(10 + i)
		simDelta := ref.Base(simSub.Mapping) != nil
		simUp, carrier, upBuf := wireUplink(&enc, simSub, simSub.Backbone(), ref, upOpts)
		twin.AggregateModuleWise([]*modular.Update{{Sub: carrier, Importance: imp, Weight: weight}})
		tensor.Release(upBuf) // read, as land hands it back
		if err := cl.PushUpdate(sub, imp, weight); err != nil {
			t.Fatal(err)
		}
		if err := downDec.Recv(&pushResp); err != nil {
			t.Fatal(err)
		}
		up := tappedPayload(t, upDec, &pushReq, func() *edgenet.WireHeader { return pushReq.Payload })
		if !simDelta || !up.Header.Delta {
			t.Fatalf("%s: push against the reference just fetched: simulator delta %v, transport delta %v", when, simDelta, up.Header.Delta)
		}
		if simUp != up.WireBytes() {
			t.Fatalf("%s: simulator charged %d B up, the payload is %d B", when, simUp, up.WireBytes())
		}
		count(up.Header.Delta)

		if !sameBits(cloudVector(cloud), cloudVector(twin)) {
			t.Fatalf("%s: the server's cloud model and the simulator's diverge", when)
		}
		st := srv.StatsSnapshot()
		if st.WireFull != full || st.WireDelta != delta || st.WireFallbacks != 0 || st.Aggregations != int64(i+1) {
			t.Fatalf("%s: server counted %+v, script has %d full and %d delta payloads", when, st, full, delta)
		}
	}
}
