package edgenet

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/modular"
)

// --- fault injector ---------------------------------------------------------

// faultSpecCases is TestParseFaultSpec's table and FuzzParseFaultSpec's seed
// corpus. A nil want means the spec must not parse.
var faultSpecCases = []struct {
	spec string
	want *FaultConfig
}{
	{"drop=0.25,delay=20ms,reset=0.05,bw=256k,seed=7",
		&FaultConfig{Seed: 7, Drop: 0.25, Delay: 20 * time.Millisecond, Reset: 0.05, BandwidthBps: 256 << 10}},
	{"", &FaultConfig{}},
	{"none", &FaultConfig{}},
	{"bw=3m", &FaultConfig{BandwidthBps: 3 << 20}},
	{"bw=8796093022207m", &FaultConfig{BandwidthBps: 8796093022207 << 20}}, // largest that fits
	{"drop=1.5", nil},
	{"drop=NaN", nil},
	{"delay=-1s", nil},
	{"bogus=1", nil},
	{"drop", nil},
	{"bw=0", nil},
	// n·mult used to wrap: to 0 (a silently clean network) and to -1048576.
	{"bw=17592186044416m", nil},
	{"bw=9223372036854775807m", nil},
}

func TestParseFaultSpec(t *testing.T) {
	for _, tc := range faultSpecCases {
		cfg, err := ParseFaultSpec(tc.spec)
		switch {
		case tc.want == nil && err == nil:
			t.Errorf("spec %q should not parse, got %+v", tc.spec, cfg)
		case tc.want != nil && err != nil:
			t.Errorf("spec %q: %v", tc.spec, err)
		case tc.want != nil && cfg != *tc.want:
			t.Errorf("spec %q: got %+v, want %+v", tc.spec, cfg, *tc.want)
		}
	}
	if c, _ := ParseFaultSpec(""); c.Enabled() {
		t.Fatalf("empty spec enables faults: %+v", c)
	}
}

// FuzzParseFaultSpec: the parser never panics, whatever it accepts is a
// well-formed link (probabilities in [0,1], nothing negative), and String
// renders it as a spec that parses back to the same config.
func FuzzParseFaultSpec(f *testing.F) {
	for _, tc := range faultSpecCases {
		f.Add(tc.spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseFaultSpec(spec)
		if err != nil {
			return
		}
		if !(c.Drop >= 0 && c.Drop <= 1) || !(c.Reset >= 0 && c.Reset <= 1) || c.Delay < 0 || c.BandwidthBps < 0 {
			t.Fatalf("spec %q parsed to an impossible link %+v", spec, c)
		}
		back, err := ParseFaultSpec(c.String())
		if err != nil || back != c {
			t.Fatalf("spec %q -> %+v -> %q -> %+v, %v", spec, c, c.String(), back, err)
		}
	})
}

func TestFaultRollDeterministicAndKeyed(t *testing.T) {
	cfg := FaultConfig{Seed: 3, Drop: 0.5}
	if cfg.Roll(1, 2, 3) != cfg.Roll(1, 2, 3) {
		t.Fatal("same key must give the same roll")
	}
	if cfg.Roll(1, 2, 3) == cfg.Roll(1, 2, 4) {
		t.Fatal("different keys should give different rolls")
	}
	other := FaultConfig{Seed: 4, Drop: 0.5}
	if cfg.Roll(1, 2, 3) == other.Roll(1, 2, 3) {
		t.Fatal("different seeds should give different rolls")
	}
	// Rough uniformity sanity: mean of many rolls near 0.5.
	var sum float64
	const n = 4096
	for i := int64(0); i < n; i++ {
		sum += cfg.Roll(i)
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Fatalf("roll mean %v implausible for uniform [0,1)", mean)
	}
}

func TestFaultyConnDeterministicSequence(t *testing.T) {
	run := func() FaultEvents {
		a, b := net.Pipe()
		defer b.Close()
		fc := NewFaultyConn(a, FaultConfig{Seed: 9, Drop: 0.4, Reset: 0.2})
		// Drain deliveries so writes that do go through don't block.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for {
				if _, err := b.Read(buf); err != nil {
					return
				}
			}
		}()
		for i := 0; i < 32; i++ {
			if _, err := fc.Write([]byte("0123456789abcdef")); err != nil {
				break // injected reset closed the conn
			}
		}
		_ = a.Close()
		wg.Wait()
		return fc.Events()
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("same seed produced different fault sequences: %+v vs %+v", first, second)
	}
	if first.Drops == 0 && first.Resets == 0 {
		t.Fatalf("no faults injected at drop=0.4/reset=0.2: %+v", first)
	}
}

// --- satellite 1: traffic accounted on every ServeConn exit path -----------

// serveDone runs ServeConn in a goroutine and returns a channel closed when
// the handler exits.
func serveDone(srv *Server, conn net.Conn) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(conn)
		_ = conn.Close()
	}()
	return done
}

func TestTrafficCountedOnRecvErrorExit(t *testing.T) {
	srv := NewServer(buildModel(21), 1)
	a, b := net.Pipe()
	done := serveDone(srv, a)
	cl := NewPipeClient(b, 1, buildModel(21))
	if err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	_ = b.Close() // server sees a recv error next
	<-done
	st := srv.StatsSnapshot()
	if st.BytesIn == 0 || st.BytesOut == 0 {
		t.Fatalf("recv-error exit dropped traffic: %+v", st)
	}
}

func TestTrafficCountedOnSendErrorExit(t *testing.T) {
	srv := NewServer(buildModel(22), 1)
	a, b := net.Pipe()
	done := serveDone(srv, a)
	// Hand-rolled request: net.Pipe is synchronous, so once Send returns the
	// server has consumed the request; closing now makes its reply fail.
	codec := NewCodec(b)
	if err := codec.Send(&Request{Kind: KindHello, DeviceID: 1}); err != nil {
		t.Fatal(err)
	}
	_ = b.Close()
	<-done
	st := srv.StatsSnapshot()
	if st.BytesIn == 0 {
		t.Fatalf("send-error exit dropped inbound traffic: %+v", st)
	}
}

// TestServerDropsImplausibleHeader: an upload whose header announces more
// than the server's own model could hold ends the connection — counted as a
// reset — without the server waiting for, or sizing anything from, the 2^20
// frames it was promised.
func TestServerDropsImplausibleHeader(t *testing.T) {
	srv := NewServer(buildModel(24), 1)
	a, b := net.Pipe()
	done := serveDone(srv, a)
	err := NewCodec(b).Send(&Request{
		Kind: KindPushUpdate, DeviceID: 1,
		Payload: &WireHeader{Len: 1 << 30, Chunks: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-done
	_ = b.Close()
	if st := srv.StatsSnapshot(); st.Resets != 1 || st.UpdatesReceived != 0 {
		t.Fatalf("stats after an implausible header: %+v", st)
	}
}

func TestTrafficCountedOnShutdownExit(t *testing.T) {
	srv := NewServer(buildModel(23), 1)
	a, b := net.Pipe()
	done := serveDone(srv, a)
	cl := NewPipeClient(b, 1, buildModel(23))
	if err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Shutdown(); err != nil {
		t.Fatal(err)
	}
	<-done
	st := srv.StatsSnapshot()
	if st.BytesIn == 0 || st.BytesOut == 0 {
		t.Fatalf("shutdown exit dropped traffic: %+v", st)
	}
	cin, cout := cl.Traffic()
	if st.BytesIn != cout || st.BytesOut != cin {
		t.Fatalf("server (%d in, %d out) and client (%d out, %d in) disagree",
			st.BytesIn, st.BytesOut, cout, cin)
	}
}

// --- satellite 2: accept loop survives transient errors ---------------------

// flakyListener fails the first Accepts with a transient error, then
// delegates to the real listener.
type flakyListener struct {
	net.Listener
	mu       sync.Mutex
	failures int
}

var errFlaky = errors.New("transient accept failure (injected)")

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	fail := l.failures > 0
	if fail {
		l.failures--
	}
	l.mu.Unlock()
	if fail {
		return nil, errFlaky
	}
	return l.Listener.Accept()
}

func TestAcceptLoopSurvivesTransientError(t *testing.T) {
	srv := NewServer(buildModel(24), 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(&flakyListener{Listener: ln, failures: 2})
	defer srv.Close()

	cl, err := Dial(ln.Addr().String(), 1, buildModel(24))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Hello(); err != nil {
		t.Fatalf("server went deaf after transient accept error: %v", err)
	}
	if st := srv.StatsSnapshot(); st.AcceptRetries != 2 {
		t.Fatalf("AcceptRetries = %d, want 2", st.AcceptRetries)
	}
}

// --- satellite 3: malformed Hello reply errors instead of panicking ---------

// stubServerClient returns a client whose server is a stub that answers the
// first request with resp, whatever it asked — for replies no real server
// sends.
func stubServerClient(t *testing.T, skeleton *modular.Model, resp *Response) *EdgeClient {
	t.Helper()
	a, b := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		codec := NewCodec(a)
		var req Request
		if err := codec.Recv(&req); err != nil {
			return
		}
		_ = codec.Send(resp)
	}()
	t.Cleanup(func() { _ = b.Close(); <-done; _ = a.Close() })
	return NewPipeClient(b, 1, skeleton)
}

func TestHelloMalformedSelectorReturnsError(t *testing.T) {
	// A malicious server: the right version, OK, and a truncated selector.
	cl := stubServerClient(t, buildModel(25), &Response{OK: true, Proto: ProtoVersion, Selector: []float32{1, 2, 3}})
	err := cl.Hello()
	if err == nil || !strings.Contains(err.Error(), "selector") {
		t.Fatalf("Hello accepted a truncated selector: %v", err)
	}
}

// --- satellite 4: sub-model serving does not hold the lock through quantize -

func TestConcurrentQuantizedFetches(t *testing.T) {
	cloud := buildModel(26)
	srv := NewServer(cloud, 1)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const devices = 6
	var wg sync.WaitGroup
	errs := make(chan error, devices)
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			skeleton := buildModel(26)
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
			sub, err := cl.FetchSubModel(uniformImportance(skeleton), looseBudget())
			if err != nil {
				errs <- err
				return
			}
			if sub.NumModules() == 0 {
				errs <- errors.New("empty sub-model")
			}
		}(d)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := srv.StatsSnapshot(); st.SubModelsServed != devices {
		t.Fatalf("SubModelsServed = %d, want %d", st.SubModelsServed, devices)
	}
}

// --- tentpole: retries, deadlines, dedupe, hung clients ---------------------

func TestPushUpdateReplayIsDeduped(t *testing.T) {
	cloud := buildModel(27)
	skeleton := buildModel(27)
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
	if err := cl.PushUpdate(sub, imp, 1); err != nil {
		t.Fatal(err)
	}
	// Replay: rewind the client's round tag so the next push reuses the same
	// Seq — exactly what a retry after a lost response does.
	cl.seq--
	if err := cl.PushUpdate(sub, imp, 1); err != nil {
		t.Fatal(err)
	}
	st := srv.StatsSnapshot()
	if st.UpdatesReceived != 1 {
		t.Fatalf("replayed update was applied twice: %+v", st)
	}
	if st.Dedups != 1 {
		t.Fatalf("Dedups = %d, want 1", st.Dedups)
	}
	// A fresh Seq is applied normally.
	if err := cl.PushUpdate(sub, imp, 1); err != nil {
		t.Fatal(err)
	}
	if st := srv.StatsSnapshot(); st.UpdatesReceived != 2 {
		t.Fatalf("fresh update after replay not applied: %+v", st)
	}
}

func TestServerReadDeadlineReapsHungClient(t *testing.T) {
	srv := NewServer(buildModel(28), 1)
	srv.ReadTimeout = 50 * time.Millisecond
	a, b := net.Pipe()
	defer b.Close()
	done := serveDone(srv, a)
	// The client connects and then says nothing.
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not return for a silent client")
	}
	if st := srv.StatsSnapshot(); st.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", st.Timeouts)
	}
}

func TestCloseReturnsDespiteHungClient(t *testing.T) {
	srv := NewServer(buildModel(29), 1)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A client that dials and hangs forever without sending a request.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	// Give the accept loop a moment to hand the conn to ServeConn.
	time.Sleep(20 * time.Millisecond)

	closed := make(chan struct{})
	go func() {
		defer close(closed) // LIFO: runs after Close returns
		defer srv.Close()
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a hung client")
	}
}

func TestClientRetriesAcrossReconnects(t *testing.T) {
	cloud := buildModel(30)
	srv := NewServer(cloud, 1)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// First connection is a black hole (every write dropped); the redialer
	// returns clean connections, so attempt 2 must succeed.
	first := true
	skeleton := buildModel(30)
	cl := &EdgeClient{DeviceID: 1, Skeleton: skeleton}
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
	rw, err := cl.Redial()
	if err != nil {
		t.Fatal(err)
	}
	cl.attach(rw)
	defer cl.Close()

	if err := cl.Hello(); err != nil {
		t.Fatalf("Hello did not survive a dead first connection: %v", err)
	}
	rs := cl.RetryStats()
	if rs.Retries == 0 || rs.Reconnects == 0 || rs.Timeouts == 0 {
		t.Fatalf("expected retry+reconnect+timeout, got %+v", rs)
	}
	st := srv.StatsSnapshot()
	if st.Retries == 0 {
		t.Fatalf("server did not observe the retried attempt: %+v", st)
	}
}

func TestFullRoundOverFaultyLink(t *testing.T) {
	cloud := buildModel(31)
	srv := NewServer(cloud, 1)
	srv.ReadTimeout = 500 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	skeleton := buildModel(31)
	cl, err := DialFaulty(addr, 1, skeleton, FaultConfig{Seed: 5, Drop: 0.15, Delay: 200 * time.Microsecond, Reset: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Policy = RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond, CallTimeout: 300 * time.Millisecond, Seed: 1}

	if err := cl.Hello(); err != nil {
		t.Fatalf("hello over faulty link: %v", err)
	}
	imp := uniformImportance(skeleton)
	sub, err := cl.FetchSubModel(imp, looseBudget())
	if err != nil {
		t.Fatalf("fetch over faulty link: %v", err)
	}
	if err := cl.PushUpdate(sub, imp, 1); err != nil {
		t.Fatalf("push over faulty link: %v", err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats over faulty link: %v", err)
	}
	if st.SubModelsServed != 1 {
		t.Fatalf("round did not complete: %+v", st)
	}
	if st.UpdatesReceived != 1 {
		t.Fatalf("update not applied exactly once: %+v", st)
	}
}
