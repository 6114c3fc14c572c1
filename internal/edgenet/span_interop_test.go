package edgenet

import (
	"io"
	"maps"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/modular"
	"repro/internal/obs/span"
	"repro/internal/tensor"
)

// Interop gates for the trace context riding the RPC plane
// (docs/PROTOCOL.md "Trace context"): the Request.TraceID/SpanID and
// Response.TraceID fields need no version — gob omits zero values and skips
// fields a peer does not declare — so traced and untraced peers interoperate
// freely, and the spans both sides record always stitch
// into one well-formed parented tree.

// combined merges client- and server-side recordings the way an operator
// would (scraping both /spans endpoints into one file).
func combined(recs ...*span.Recorder) []span.Span {
	var out []span.Span
	for _, r := range recs {
		out = append(out, r.Snapshot()...)
	}
	return out
}

func countKindPrefix(spans []span.Span, prefix string) int {
	n := 0
	for _, s := range spans {
		if strings.HasPrefix(s.Kind, prefix) {
			n++
		}
	}
	return n
}

// TestTraceContextCrossesTheWire runs one traced hello, fetch and push per
// model and pins the span tree they record: the same kinds, as many of each,
// whether a payload is one chunk frame or dozens — no span is recorded per
// frame, so what one exchange records is fixed.
func TestTraceContextCrossesTheWire(t *testing.T) {
	want := map[string]int{
		"rpc.hello": 1, "rpc.get_sub_model": 1, "rpc.push_update": 1, "rpc.attempt": 3,
		"srv.hello": 1, "srv.get_sub_model": 1, "srv.push_update": 1, "srv.decode": 3,
		"srv.derive": 1, "srv.encode": 1, "srv.dequantize": 1, "srv.lock_wait": 1, "srv.aggregate": 1,
	}
	cfg := modular.Config{ModulesPerLayer: 4, TopK: 2, EmbedDim: 16, ResidualModules: true, MinShrink: 0.25, MaxShrink: 0.5}
	for _, tc := range []struct {
		name      string
		build     func() *modular.Model
		minChunks int
	}{
		{"small", func() *modular.Model { return buildModel(60) }, 1},
		{"large", func() *modular.Model { return modular.NewModularMLP(tensor.NewRNG(60), 64, 160, 4, cfg) }, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cloud, skeleton := tc.build(), tc.build()
			srv := NewServer(cloud, 1)
			srvRec := span.NewRecorder(256)
			srv.Spans = srvRec
			cl := pipePair(t, srv, skeleton)
			clRec := span.NewRecorder(256)
			clRec.SetSampler(1, 1)
			cl.Spans = clRec
			tid, ok := clRec.Trace(7)
			if !ok {
				t.Fatal("sampler at rate 1 rejected the trace")
			}
			cl.SetTraceContext(tid, 0)

			if err := cl.Hello(); err != nil {
				t.Fatal(err)
			}
			imp := uniformImportance(cloud)
			sub, err := cl.FetchSubModel(imp, looseBudget())
			if err != nil {
				t.Fatal(err)
			}
			// Both legs carry the sub-model's backbone vector.
			if c := (len(sub.AppendBackboneVector(nil)) + chunkLen - 1) / chunkLen; c < tc.minChunks {
				t.Fatalf("payloads span %d chunk frames each way, want at least %d", c, tc.minChunks)
			}
			if err := cl.PushUpdate(sub, imp, 1); err != nil {
				t.Fatal(err)
			}

			all := combined(clRec, srvRec)
			if err := span.ValidateParents(all); err != nil {
				t.Fatalf("client+server spans do not stitch into one tree: %v", err)
			}
			got := map[string]int{}
			for _, s := range all {
				if s.Trace != tid {
					t.Fatalf("span %s recorded under trace %d, want %d", s.Kind, s.Trace, tid)
				}
				got[s.Kind]++
			}
			if !maps.Equal(got, want) {
				t.Fatalf("one traced hello, fetch and push recorded %v, want %v", got, want)
			}
			// The server observed the context: its handler and phase spans
			// are parented under the client's attempt spans, across the gob
			// boundary.
			for _, s := range srvRec.Snapshot() {
				if s.Parent == 0 {
					t.Fatalf("server span %s is a root; it must parent under the client's attempt", s.Kind)
				}
			}
		})
	}
}

func TestUntracedPeersInteroperate(t *testing.T) {
	// Traced client against a span-unaware server (nil recorder): the context
	// fields ride along, the server ignores them, and the exchange is
	// unaffected.
	t.Run("traced client, unaware server", func(t *testing.T) {
		cloud := buildModel(61)
		srv := NewServer(cloud, 1)
		cl := pipePair(t, srv, buildModel(61))
		rec := span.NewRecorder(256)
		rec.SetSampler(1, 1)
		cl.Spans = rec
		tid, _ := rec.Trace(3)
		cl.SetTraceContext(tid, 0)
		if err := cl.Hello(); err != nil {
			t.Fatal(err)
		}
		imp := uniformImportance(cloud)
		sub, err := cl.FetchSubModel(imp, looseBudget())
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.PushUpdate(sub, imp, 1); err != nil {
			t.Fatal(err)
		}
		if err := span.ValidateParents(rec.Snapshot()); err != nil {
			t.Fatalf("client-only capture must still be well-formed: %v", err)
		}
		if n := countKindPrefix(rec.Snapshot(), "rpc."); n == 0 {
			t.Fatal("traced client recorded nothing")
		}
	})

	// Untraced client against a span-aware server: every request carries
	// TraceID 0 (the gob zero value a span-unaware peer would send), so
	// the server's recorder must stay empty — untraced requests never
	// manufacture spans.
	t.Run("untraced client, aware server", func(t *testing.T) {
		cloud := buildModel(62)
		srv := NewServer(cloud, 1)
		srvRec := span.NewRecorder(256)
		srv.Spans = srvRec
		cl := pipePair(t, srv, buildModel(62))
		if err := cl.Hello(); err != nil {
			t.Fatal(err)
		}
		imp := uniformImportance(cloud)
		sub, err := cl.FetchSubModel(imp, looseBudget())
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.PushUpdate(sub, imp, 1); err != nil {
			t.Fatal(err)
		}
		if n := srvRec.Len(); n != 0 {
			t.Fatalf("server recorded %d spans for untraced requests, want 0", n)
		}
	})
}

// TestSpansSurviveReconnectRetry pins the mid-retry story: a dead first
// connection forces timeout → backoff → redial, and the capture must show
// the whole saga — one root call span, a failed attempt, a backoff, and the
// succeeding attempt — all correctly parented.
func TestSpansSurviveReconnectRetry(t *testing.T) {
	cloud := buildModel(64)
	srv := NewServer(cloud, 1)
	srvRec := span.NewRecorder(256)
	srv.Spans = srvRec
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	first := true
	cl := &EdgeClient{DeviceID: 1, Skeleton: buildModel(64)}
	cl.Policy = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, CallTimeout: 200 * time.Millisecond, Seed: 1}
	cl.Redial = func() (io.ReadWriteCloser, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		if first {
			first = false
			return NewFaultyConn(conn, FaultConfig{Seed: 1, Drop: 1}), nil
		}
		return conn, nil
	}
	rec := span.NewRecorder(256)
	rec.SetSampler(9, 1)
	cl.Spans = rec
	tid, _ := rec.Trace(1)
	cl.SetTraceContext(tid, 0)
	rw, err := cl.Redial()
	if err != nil {
		t.Fatal(err)
	}
	cl.attach(rw)
	defer cl.Close()

	if err := cl.Hello(); err != nil {
		t.Fatalf("Hello did not survive a dead first connection: %v", err)
	}

	all := combined(rec, srvRec)
	if err := span.ValidateParents(all); err != nil {
		t.Fatalf("retry capture is torn: %v", err)
	}
	var calls, attempts, backoffs, failed int
	for _, s := range rec.Snapshot() {
		switch s.Kind {
		case "rpc.hello":
			calls++
		case "rpc.attempt":
			attempts++
			if s.Err != "" {
				failed++
			}
		case "rpc.backoff":
			backoffs++
		}
	}
	if calls != 1 {
		t.Fatalf("%d rpc.hello call spans, want exactly 1 (retries are children, not new calls)", calls)
	}
	if attempts < 2 || failed == 0 || backoffs == 0 {
		t.Fatalf("capture misses the retry story: %d attempts (%d failed), %d backoffs", attempts, failed, backoffs)
	}
}

// TestFaultyChunkStreamTracesTruncated drives v2 chunk streams through the
// fault injector: attempts die mid-payload, yet every span both sides record
// is well-formed — failed attempts carry their error and parent correctly
// instead of leaving orphans. "Truncated, never torn."
func TestFaultyChunkStreamTracesTruncated(t *testing.T) {
	cloud := buildModel(65)
	srv := NewServer(cloud, 1)
	srv.ReadTimeout = 500 * time.Millisecond
	srv.WriteTimeout = 500 * time.Millisecond
	srvRec := span.NewRecorder(1 << 10)
	srv.Spans = srvRec
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	skeleton := buildModel(65)
	cl, err := DialFaulty(addr, 1, skeleton, FaultConfig{Seed: 13, Drop: 0.3, Delay: 200 * time.Microsecond, Reset: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Policy = RetryPolicy{MaxAttempts: 12, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond, CallTimeout: time.Second, Seed: 2}
	rec := span.NewRecorder(1 << 10)
	rec.SetSampler(4, 1)
	cl.Spans = rec
	tid, _ := rec.Trace(2)
	cl.SetTraceContext(tid, 0)

	if err := cl.Hello(); err != nil {
		t.Fatalf("hello over faulty link: %v", err)
	}
	imp := uniformImportance(skeleton)
	for round := 0; round < 3; round++ {
		sub, err := cl.FetchSubModel(imp, looseBudget())
		if err != nil {
			t.Fatalf("round %d fetch over faulty link: %v", round, err)
		}
		if err := cl.PushUpdate(sub, imp, 1); err != nil {
			t.Fatalf("round %d push over faulty link: %v", round, err)
		}
	}

	all := combined(rec, srvRec)
	if err := span.ValidateParents(all); err != nil {
		t.Fatalf("faulty-link capture has orphans: %v", err)
	}
	errSpans := 0
	for _, s := range all {
		if s.Err != "" {
			errSpans++
		}
	}
	if rs := cl.RetryStats(); rs.Retries == 0 {
		t.Fatalf("fault rates too gentle to exercise truncation: %+v", rs)
	} else if errSpans == 0 {
		t.Fatalf("%d retries happened but no span carries an error", rs.Retries)
	}
}
