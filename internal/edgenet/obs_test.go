package edgenet

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"repro/internal/obs"
)

// famValue digs one point's value out of a snapshot.
func famValue(t *testing.T, fams []obs.Family, name, labels string) float64 {
	t.Helper()
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, p := range f.Points {
			if p.Labels == labels {
				return p.Value
			}
		}
	}
	t.Fatalf("metric %s{%s} not found", name, labels)
	return 0
}

// TestKindStatsMatchesRegistry is the migration regression test: the Stats
// struct a KindStats RPC returns must be exactly the registry's counters —
// the RPC answer and /metrics can never disagree.
func TestKindStatsMatchesRegistry(t *testing.T) {
	cloud := buildModel(11)
	skeleton := buildModel(11)
	srv := NewServer(cloud, 1)
	cl := pipePair(t, srv, skeleton)
	if err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	sub, err := cl.FetchSubModel(uniformImportance(cloud), looseBudget())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.PushUpdate(sub, uniformImportance(cloud), 1); err != nil {
		t.Fatal(err)
	}
	rpcStats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if rpcStats.SubModelsServed != 1 || rpcStats.UpdatesReceived != 1 || rpcStats.Aggregations != 1 {
		t.Fatalf("unexpected activity counters: %+v", rpcStats)
	}

	snap := srv.Registry().Snapshot()
	check := func(name, labels string, want int64) {
		t.Helper()
		if got := famValue(t, snap, name, labels); int64(got) != want {
			t.Errorf("%s{%s} = %v, registry/RPC want %d", name, labels, got, want)
		}
	}
	check("nebula_edgenet_server_submodels_served_total", "", rpcStats.SubModelsServed)
	check("nebula_edgenet_server_updates_received_total", "", rpcStats.UpdatesReceived)
	check("nebula_edgenet_server_aggregations_total", "", rpcStats.Aggregations)
	check("nebula_edgenet_server_events_total", `event="retry"`, rpcStats.Retries)
	check("nebula_edgenet_server_events_total", `event="timeout"`, rpcStats.Timeouts)
	check("nebula_edgenet_server_events_total", `event="reset"`, rpcStats.Resets)
	check("nebula_edgenet_server_events_total", `event="dedup"`, rpcStats.Dedups)
	check("nebula_edgenet_server_events_total", `event="accept_retry"`, rpcStats.AcceptRetries)
	// Bytes totals: the snapshot was taken with the connection still open,
	// so the server-side totals are folded in on connection close; compare
	// through a second RPC round trip instead.
	st2 := srv.StatsSnapshot()
	if st2.SubModelsServed != rpcStats.SubModelsServed {
		t.Errorf("StatsSnapshot diverged from RPC: %+v vs %+v", st2, rpcStats)
	}
}

// TestServerRPCMetricsObserved checks the per-kind latency and payload-size
// histograms fill in on both sides of the wire.
func TestServerRPCMetricsObserved(t *testing.T) {
	cloud := buildModel(12)
	skeleton := buildModel(12)
	srv := NewServer(cloud, 1)
	// Drive the pipe directly (not pipePair) so the test can wait for
	// ServeConn to return — per-RPC observations happen on the server
	// goroutine after the response flushes, so reading them is only safe
	// once the connection is fully torn down.
	a, b := net.Pipe()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(a)
		_ = a.Close()
		close(done)
	}()
	cl := NewPipeClient(b, 1, skeleton)
	if err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	sub, err := cl.FetchSubModel(uniformImportance(cloud), looseBudget())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.PushUpdate(sub, uniformImportance(cloud), 1); err != nil {
		t.Fatal(err)
	}
	_ = b.Close()
	<-done
	for _, kind := range []MsgKind{KindHello, KindGetSubModel, KindPushUpdate} {
		if got := srv.metrics.rpcSeconds[kind].Count(); got != 1 {
			t.Errorf("server rpcSeconds[%s] count = %d, want 1", kindName(kind), got)
		}
		if got := srv.metrics.reqBytes[kind].Count(); got != 1 {
			t.Errorf("server reqBytes[%s] count = %d, want 1", kindName(kind), got)
		}
		if sum := srv.metrics.reqBytes[kind].Sum(); sum <= 0 {
			t.Errorf("server reqBytes[%s] sum = %v, want > 0", kindName(kind), sum)
		}
		if sum := srv.metrics.rspBytes[kind].Sum(); sum <= 0 {
			t.Errorf("server rspBytes[%s] sum = %v, want > 0", kindName(kind), sum)
		}
		// Client mirrors (process-wide Default registry; counts are >= 1
		// because other tests in the package share the handles).
		if got := clientMetrics.rpcSeconds[kind].Count(); got < 1 {
			t.Errorf("client rpcSeconds[%s] count = %d, want >= 1", kindName(kind), got)
		}
	}
	// Request and response sizes must agree across the wire: client out ==
	// server in for this connection (same codec byte streams).
	cin, cout := cl.Traffic()
	st := srv.metrics
	var serverIn, serverOut float64
	for _, kind := range allKinds {
		serverIn += st.reqBytes[kind].Sum()
		serverOut += st.rspBytes[kind].Sum()
	}
	if float64(cout) != serverIn {
		t.Errorf("client sent %d bytes but server request histograms saw %v", cout, serverIn)
	}
	if float64(cin) != serverOut {
		t.Errorf("client received %d bytes but server response histograms saw %v", cin, serverOut)
	}
}

// TestServerExposition sanity-checks the per-server registry renders the
// expected families deterministically.
func TestServerExposition(t *testing.T) {
	srv := NewServer(buildModel(13), 1)
	var a, b bytes.Buffer
	if err := obs.WritePrometheus(&a, srv.Registry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WritePrometheus(&b, srv.Registry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("server exposition not stable at quiescence")
	}
	for _, want := range []string{
		"# TYPE nebula_edgenet_server_events_total counter",
		"# TYPE nebula_edgenet_server_rpc_seconds histogram",
		`nebula_edgenet_server_payload_bytes_bucket{dir="in",kind="hello",le="256"} 0`,
	} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestUnknownKindObserved: a request of a kind the server does not speak is
// answered with an error and observed under kind="unknown", not dropped from
// the per-kind histograms.
func TestUnknownKindObserved(t *testing.T) {
	srv := NewServer(buildModel(14), 1)
	a, b := net.Pipe()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(a)
		_ = a.Close()
		close(done)
	}()
	codec := NewCodec(b)
	if err := codec.Send(&Request{Kind: 42}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := codec.Recv(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Error == "" {
		t.Fatalf("kind 42 answered %+v, want an error", resp)
	}
	_ = b.Close()
	<-done
	counts := map[string]uint64{}
	for _, f := range srv.Registry().Snapshot() {
		for _, p := range f.Points {
			counts[f.Name+"{"+p.Labels+"}"] = p.Count
		}
	}
	for _, series := range []string{
		`nebula_edgenet_server_rpc_seconds{kind="unknown"}`,
		`nebula_edgenet_server_payload_bytes{dir="in",kind="unknown"}`,
		`nebula_edgenet_server_payload_bytes{dir="out",kind="unknown"}`,
	} {
		if counts[series] != 1 {
			t.Errorf("%s counts %d, want 1", series, counts[series])
		}
	}
}
