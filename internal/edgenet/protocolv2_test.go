package edgenet

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/modular"
)

// subClose asserts a fetched sub-model's parameters are within the wire
// codec's error budget of the cloud's own extraction.
func subClose(t *testing.T, cloud *modular.Model, mapping [][]int, got []float32, bound float64) {
	t.Helper()
	want := cloud.Extract(mapping).BackboneVector()
	if len(want) != len(got) {
		t.Fatalf("length mismatch: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if math.Abs(float64(want[i]-got[i])) > bound {
			t.Fatalf("weight %d error %v exceeds %v", i, want[i]-got[i], bound)
		}
	}
}

func TestV2HandshakeAndFetchPush(t *testing.T) {
	cloud := buildModel(40)
	skeleton := buildModel(40)
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
	subClose(t, cloud, sub.Mapping, sub.BackboneVector(), 0.05)
	st := srv.StatsSnapshot()
	if st.WireFull != 1 || st.WireDelta != 0 {
		t.Fatalf("first fetch should be a full payload: %+v", st)
	}

	// Push goes back delta-coded against the fetch reconstruction.
	if err := cl.PushUpdate(sub, imp, 1); err != nil {
		t.Fatal(err)
	}
	st = srv.StatsSnapshot()
	if st.WireDelta != 1 {
		t.Fatalf("push should be delta-coded: %+v", st)
	}
	if st.UpdatesReceived != 1 || st.Aggregations != 1 {
		t.Fatalf("update not applied: %+v", st)
	}

	// A second fetch with the same importance (same mapping) delta-codes the
	// downlink too.
	if _, err := cl.FetchSubModel(imp, looseBudget()); err != nil {
		t.Fatal(err)
	}
	st = srv.StatsSnapshot()
	if st.WireDelta != 2 {
		t.Fatalf("second fetch should be delta-coded: %+v", st)
	}
	if st.WireFallbacks != 0 {
		t.Fatalf("no fallback expected: %+v", st)
	}
}

func TestV2TrafficBeatsV1Plain(t *testing.T) {
	cloud := buildModel(41)
	imp := uniformImportance(cloud)
	srv := NewServer(cloud, 1)
	cl := pipePair(t, srv, buildModel(41))
	if err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	// Two rounds so delta coding participates. The plain size is analytic:
	// 4 B per element, each way, and nothing for the envelopes.
	var plain int64
	for round := 0; round < 2; round++ {
		sub, err := cl.FetchSubModel(imp, looseBudget())
		if err != nil {
			t.Fatal(err)
		}
		plain += 2 * 4 * int64(len(sub.BackboneVector()))
		if err := cl.PushUpdate(sub, imp, 1); err != nil {
			t.Fatal(err)
		}
	}
	in, out := cl.Traffic()
	if v2 := in + out; v2*2 >= plain {
		t.Fatalf("v2 traffic %d not ≥2× below plain float32 %d", v2, plain)
	}
}

// rawExchange sends one request envelope over c and reads the reply.
func rawExchange(t *testing.T, c *Codec, req *Request) *Response {
	t.Helper()
	if err := c.Send(req); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := c.Recv(&resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

// rawServerConn serves one end of a pipe with srv and returns a codec over
// the other, for requests no EdgeClient would send.
func rawServerConn(t *testing.T, srv *Server) *Codec {
	t.Helper()
	serverEnd, clientEnd := net.Pipe()
	done := serveDone(srv, serverEnd)
	t.Cleanup(func() { _ = clientEnd.Close(); <-done })
	return NewCodec(clientEnd)
}

// TestMixedVersionInterop: there is one protocol version, and each end
// refuses a Hello exchange that names another.
func TestMixedVersionInterop(t *testing.T) {
	// A peer of another version (0 is a peer that predates the field) gets an
	// error reply naming both versions, over a connection that survives: the
	// same stream then completes a Hello at this version.
	t.Run("v1 client, v2 server", func(t *testing.T) {
		cloud := buildModel(42)
		codec := rawServerConn(t, NewServer(cloud, 1))
		for _, proto := range []int{0, 1, ProtoVersion - 1} {
			resp := rawExchange(t, codec, &Request{Kind: KindHello, DeviceID: 1, Proto: proto})
			if resp.OK || len(resp.Selector) != 0 {
				t.Fatalf("Hello at version %d accepted: OK=%v with %d selector floats", proto, resp.OK, len(resp.Selector))
			}
			for _, want := range []string{fmt.Sprintf("version %d ", proto), fmt.Sprintf("version %d", ProtoVersion)} {
				if !strings.Contains(resp.Error, want) {
					t.Fatalf("refusal %q does not name %q", resp.Error, want)
				}
			}
		}
		resp := rawExchange(t, codec, &Request{Kind: KindHello, DeviceID: 1, Proto: ProtoVersion})
		if !resp.OK || resp.Proto != ProtoVersion || len(resp.Selector) != len(cloud.Selector.Vector()) {
			t.Fatalf("ProtoVersion Hello after a refusal: OK=%v Proto=%d Error=%q, %d selector floats", resp.OK, resp.Proto, resp.Error, len(resp.Selector))
		}
	})

	// A server that answers with another version is refused by the client.
	t.Run("v2 client, v1 server", func(t *testing.T) {
		for _, proto := range []int{0, 1, 2, ProtoVersion - 1, ProtoVersion + 1} {
			skeleton := buildModel(43)
			cl := stubServerClient(t, skeleton, &Response{OK: true, Selector: skeleton.Selector.Vector(), Proto: proto})
			if err := cl.Hello(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d,", proto)) {
				t.Fatalf("Hello against a version-%d server: %v", proto, err)
			}
		}
	})
}

// TestPushWithoutPayloadRefused: an update envelope that announces no chunk
// stream is an error reply, not an update — including the push a version-1
// peer would send, complete and well-formed, with its parameters in a
// whole-tensor Backbone field this protocol no longer has.
func TestPushWithoutPayloadRefused(t *testing.T) {
	cloud := buildModel(49)
	srv := NewServer(cloud, 1)
	codec := rawServerConn(t, srv)
	imp := uniformImportance(cloud)
	active := cloud.Derive(imp, looseBudget(), false)
	type v1Push struct {
		Kind       MsgKind
		DeviceID   int
		Seq        int64
		Active     [][]int
		Backbone   []float32
		Importance [][]float64
		Weight     float64
	}
	if err := codec.Send(&v1Push{
		Kind: KindPushUpdate, DeviceID: 1, Seq: 1, Active: active,
		Backbone: cloud.Extract(active).BackboneVector(), Importance: imp, Weight: 1,
	}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := codec.Recv(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Error == "" {
		t.Fatalf("payload-less push accepted: %+v", resp)
	}
	if st := srv.StatsSnapshot(); st.UpdatesReceived != 0 || st.Aggregations != 0 {
		t.Fatalf("payload-less push reached aggregation: %+v", st)
	}
	if resp := rawExchange(t, codec, &Request{Kind: KindStats}); !resp.OK {
		t.Fatalf("connection did not survive the refusal: %+v", resp)
	}
}

// TestMalformedUpdateRejectedAtTheDoor: importance and weight are outside
// input aggregation indexes and divides by. A push it cannot use is an error
// reply that moves no counter and queues nothing — queued, it would fail
// every later aggregation for every device — and the next good push, from
// another device, aggregates into a finite model.
func TestMalformedUpdateRejectedAtTheDoor(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	good := uniformImportance(buildModel(50))
	last := len(good) - 1
	withRow := func(row []float64) [][]float64 {
		imp := append([][]float64(nil), good...)
		imp[last] = row
		return imp
	}
	withValue := func(v float64) [][]float64 {
		row := append([]float64(nil), good[last]...)
		row[len(row)-1] = v
		return withRow(row)
	}
	cases := []struct {
		name   string
		imp    [][]float64
		weight float64
	}{
		{"empty importance rows", make([][]float64, len(good)), 1},
		{"short importance row", withRow(good[last][:len(good[last])-1]), 1},
		{"long importance row", withRow(append(append([]float64(nil), good[last]...), 0.25)), 1},
		{"NaN importance", withValue(nan), 1},
		{"+Inf importance", withValue(inf), 1},
		{"-Inf importance", withValue(-inf), 1},
		{"NaN weight", good, nan},
		{"+Inf weight", good, inf},
		{"-Inf weight", good, -inf},
		{"negative weight", good, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cloud := buildModel(50)
			srv := NewServer(cloud, 2)
			bad := pipePair(t, srv, buildModel(50))
			if err := bad.Hello(); err != nil {
				t.Fatal(err)
			}
			sub, err := bad.FetchSubModel(good, looseBudget())
			if err != nil {
				t.Fatal(err)
			}
			before := srv.StatsSnapshot()
			if err := bad.PushUpdate(sub, tc.imp, tc.weight); err == nil {
				t.Fatal("malformed update acknowledged")
			}
			after := srv.StatsSnapshot()
			before.BytesIn, before.BytesOut, after.BytesIn, after.BytesOut = 0, 0, 0, 0 // settled when a connection ends
			if after != before {
				t.Fatalf("a rejected update moved counters:\nbefore %+v\nafter  %+v", before, after)
			}
			srv.mu.Lock()
			queued, seq := len(srv.pending), srv.devices[bad.DeviceID].seq
			srv.mu.Unlock()
			if queued != 0 || seq != 0 {
				t.Fatalf("a rejected update left state behind: %d queued, seq %d", queued, seq)
			}

			// The server is not wedged: two good pushes from a second device
			// reach AggregateEvery and aggregate.
			ok := pipePair(t, srv, buildModel(50))
			ok.DeviceID = 2
			if err := ok.Hello(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				sub, err := ok.FetchSubModel(good, looseBudget())
				if err != nil {
					t.Fatal(err)
				}
				if err := ok.PushUpdate(sub, good, 3); err != nil {
					t.Fatalf("good push %d after a rejected one: %v", i+1, err)
				}
			}
			if st := srv.StatsSnapshot(); st.UpdatesReceived != 2 || st.Aggregations != 1 {
				t.Fatalf("good pushes did not aggregate: %+v", st)
			}
			for _, p := range cloud.Params() {
				if p.W.HasNaN() {
					t.Fatal("cloud parameters are not finite after aggregation")
				}
			}
		})
	}
}

func TestV2PushFallbackOnLostServerReference(t *testing.T) {
	cloud := buildModel(44)
	skeleton := buildModel(44)
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
	// Simulate a server restart: the delta-reference cache is gone but the
	// client still holds its version.
	srv.mu.Lock()
	srv.devices = map[int]deviceRecord{}
	srv.mu.Unlock()

	fallbacksBefore := clientMetrics.wireFallbacks.Value()
	if err := cl.PushUpdate(sub, imp, 1); err != nil {
		t.Fatalf("push did not recover from a lost reference: %v", err)
	}
	st := srv.StatsSnapshot()
	if st.WireFallbacks != 1 {
		t.Fatalf("WireFallbacks = %d, want 1", st.WireFallbacks)
	}
	if st.UpdatesReceived != 1 {
		t.Fatalf("update not applied after fallback: %+v", st)
	}
	if got := clientMetrics.wireFallbacks.Value() - fallbacksBefore; got != 1 {
		t.Fatalf("client wire_fallback counter moved by %v, want 1", got)
	}
	// The re-sent full payload reused the same Seq, so a later fresh push
	// still lands.
	if err := cl.PushUpdate(sub, imp, 1); err != nil {
		t.Fatal(err)
	}
	if st := srv.StatsSnapshot(); st.UpdatesReceived != 2 {
		t.Fatalf("follow-up push broken: %+v", st)
	}
}

func TestV2DeltaSparsePushReducesTraffic(t *testing.T) {
	imp := uniformImportance(buildModel(45))
	pushBytes := func(topK float64) int64 {
		cloud := buildModel(45)
		skeleton := buildModel(45)
		srv := NewServer(cloud, 1)
		cl := pipePair(t, srv, skeleton)
		cl.WireOpts.TopK = topK
		if err := cl.Hello(); err != nil {
			t.Fatal(err)
		}
		sub, err := cl.FetchSubModel(imp, looseBudget())
		if err != nil {
			t.Fatal(err)
		}
		_, before := cl.Traffic()
		if err := cl.PushUpdate(sub, imp, 1); err != nil {
			t.Fatal(err)
		}
		_, after := cl.Traffic()
		return after - before
	}
	dense := pushBytes(0)
	sparse := pushBytes(0.25)
	if sparse >= dense {
		t.Fatalf("top-k push %d B not below dense %d B", sparse, dense)
	}
}

// Satellite regression: an RPC the server rejects still moved bytes and took
// time; the client histograms must observe it. The old code returned early on
// the application-error path and dropped the sample.
func TestClientMetricsObservedOnAppError(t *testing.T) {
	cloud := buildModel(46)
	srv := NewServer(cloud, 1)
	cl := pipePair(t, srv, cloud)
	if err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	secBefore := clientMetrics.rpcSeconds[KindGetSubModel].Count()
	reqBefore := clientMetrics.reqBytes[KindGetSubModel].Count()
	rspBefore := clientMetrics.rspBytes[KindGetSubModel].Count()
	// Importance with the wrong layer count is an application error: the
	// server replies OK=false over a healthy transport.
	_, err := cl.FetchSubModel([][]float64{{1}}, looseBudget())
	if err == nil {
		t.Fatal("malformed importance accepted")
	}
	if d := clientMetrics.rpcSeconds[KindGetSubModel].Count() - secBefore; d != 1 {
		t.Fatalf("rpcSeconds observed %d samples on app error, want 1", d)
	}
	if d := clientMetrics.reqBytes[KindGetSubModel].Count() - reqBefore; d != 1 {
		t.Fatalf("reqBytes observed %d samples on app error, want 1", d)
	}
	if d := clientMetrics.rspBytes[KindGetSubModel].Count() - rspBefore; d != 1 {
		t.Fatalf("rspBytes observed %d samples on app error, want 1", d)
	}
}

// brokenPipe always fails writes — every call attempt dies on the transport.
type brokenPipe struct{}

var errBroken = errors.New("injected write failure")

func (brokenPipe) Read(p []byte) (int, error)  { return 0, errBroken }
func (brokenPipe) Write(p []byte) (int, error) { return 0, errBroken }
func (brokenPipe) Close() error                { return nil }

// Satellite regression: call must not scribble retry state into the caller's
// Request. The old code stamped req.Attempt in place, so a retried call
// mutated a struct the caller still owns.
func TestCallDoesNotMutateCallerRequest(t *testing.T) {
	cl := &EdgeClient{DeviceID: 1, Skeleton: buildModel(47)}
	cl.Policy = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond, Seed: 1}
	cl.Redial = func() (io.ReadWriteCloser, error) { return brokenPipe{}, nil }
	cl.attach(brokenPipe{})
	req := &Request{Kind: KindStats, DeviceID: 1}
	if _, err := cl.call(req); err == nil {
		t.Fatal("call over a broken transport should fail")
	}
	if req.Attempt != 0 {
		t.Fatalf("caller's request mutated: Attempt = %d", req.Attempt)
	}
	if cl.RetryStats().Retries == 0 {
		t.Fatal("test did not exercise the retry path")
	}
}

// V2 chunk streams must survive the fault injector: drops and resets corrupt
// or kill the stream mid-payload, and the retry machinery replays the whole
// exchange on a fresh connection.
func TestV2ChunkStreamOverFaultyLink(t *testing.T) {
	cloud := buildModel(48)
	srv := NewServer(cloud, 1)
	srv.ReadTimeout = 500 * time.Millisecond
	srv.WriteTimeout = 500 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	skeleton := buildModel(48)
	cl, err := DialFaulty(addr, 1, skeleton, FaultConfig{Seed: 13, Drop: 0.12, Delay: 200 * time.Microsecond, Reset: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Policy = RetryPolicy{MaxAttempts: 12, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond, CallTimeout: 300 * time.Millisecond, Seed: 2}
	cl.WireOpts.TopK = 0.25

	if err := cl.Hello(); err != nil {
		t.Fatalf("hello over faulty link: %v", err)
	}
	imp := uniformImportance(skeleton)
	for round := 0; round < 3; round++ {
		sub, err := cl.FetchSubModel(imp, looseBudget())
		if err != nil {
			t.Fatalf("round %d fetch over faulty link: %v", round, err)
		}
		subClose(t, cloud, sub.Mapping, sub.BackboneVector(), 0.1)
		if err := cl.PushUpdate(sub, imp, 1); err != nil {
			t.Fatalf("round %d push over faulty link: %v", round, err)
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.UpdatesReceived != 3 {
		t.Fatalf("updates applied %d times, want 3: %+v", st.UpdatesReceived, st)
	}
	if st.WireFull+st.WireDelta == 0 {
		t.Fatal("no v2 payloads recorded over the faulty link")
	}
}
