package edgenet

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/modular"
	"repro/internal/tensor"
)

// brokenConn fails every I/O immediately — a link that is down hard, so each
// attempt costs no wall time and the test measures only backoff behavior.
type brokenConn struct{}

func (brokenConn) Read(p []byte) (int, error)  { return 0, io.ErrClosedPipe }
func (brokenConn) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }
func (brokenConn) Close() error                { return nil }

// TestRetryPolicyBackoff: the pre-jitter schedule doubles from BaseDelay and
// stops at MaxDelay; without a MaxDelay it keeps doubling.
func TestRetryPolicyBackoff(t *testing.T) {
	ms := time.Millisecond
	p := RetryPolicy{BaseDelay: 50 * ms, MaxDelay: 300 * ms}
	for i, want := range []time.Duration{50 * ms, 100 * ms, 200 * ms, 300 * ms, 300 * ms} {
		if got := p.Backoff(i + 1); got != want {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, want)
		}
	}
	p.MaxDelay = 0
	if got := p.Backoff(6); got != 1600*ms {
		t.Errorf("uncapped Backoff(6) = %v, want 1.6s", got)
	}
	if got := (RetryPolicy{}).Backoff(3); got != 0 {
		t.Errorf("zero policy Backoff(3) = %v, want 0", got)
	}
}

// TestCallDeadlineCapsBackoff is the regression test for the straggler-stall
// retry bug: with a tight whole-call Deadline, a failing call must return
// ErrCallDeadline promptly instead of sleeping the full exponential backoff
// ladder first (which blocked for seconds on a 120ms budget).
func TestCallDeadlineCapsBackoff(t *testing.T) {
	cl := &EdgeClient{DeviceID: 1}
	cl.Policy = RetryPolicy{
		MaxAttempts: 8,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Deadline:    120 * time.Millisecond,
		Seed:        1,
	}
	cl.Redial = func() (io.ReadWriteCloser, error) { return brokenConn{}, nil }
	cl.attach(brokenConn{})

	start := time.Now()
	err := cl.Hello()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call over a dead link must fail")
	}
	if !errors.Is(err, ErrCallDeadline) {
		t.Fatalf("want ErrCallDeadline, got %v", err)
	}
	// Without the cap, the ladder alone sleeps 50+100+200+400+800+1600+2000 ms
	// (plus jitter) before giving up. One second of headroom keeps the test
	// robust on slow CI while still catching the regression by an order of
	// magnitude.
	if elapsed > time.Second {
		t.Fatalf("deadline did not cap the backoff: call blocked %v with a 120ms budget", elapsed)
	}
	if st := cl.RetryStats(); st.Timeouts == 0 {
		t.Fatalf("abandoned call not counted as a timeout: %+v", st)
	}
}

// TestCallDeadlineZeroMeansUnbounded pins the compatibility contract: the
// zero-value policy (and any policy without Deadline) retries exactly as
// before, exhausting MaxAttempts and returning the transport error.
func TestCallDeadlineZeroMeansUnbounded(t *testing.T) {
	cl := &EdgeClient{DeviceID: 2}
	cl.Policy = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 1}
	attempts := 0
	cl.Redial = func() (io.ReadWriteCloser, error) { attempts++; return brokenConn{}, nil }
	cl.attach(brokenConn{})
	err := cl.Hello()
	if err == nil {
		t.Fatal("dead link must fail")
	}
	if errors.Is(err, ErrCallDeadline) {
		t.Fatalf("no deadline configured, yet got ErrCallDeadline: %v", err)
	}
	if attempts != 2 { // redials for attempts 2 and 3
		t.Fatalf("expected every retry to run, saw %d redials", attempts)
	}
}

// tallyConn counts what one end of a link does to its transport: Write calls
// and write-deadline re-arms (clearing a deadline is not one).
type tallyConn struct {
	net.Conn
	writes, arms atomic.Int64
}

func (c *tallyConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *tallyConn) SetWriteDeadline(t time.Time) error {
	if !t.IsZero() {
		c.arms.Add(1)
	}
	return c.Conn.SetWriteDeadline(t)
}

// tallyPair is pipePair with both ends of the pipe counted.
func tallyPair(t *testing.T, srv *Server, skeleton *modular.Model) (cl *EdgeClient, clientEnd, serverEnd *tallyConn) {
	t.Helper()
	a, b := net.Pipe()
	clientEnd, serverEnd = &tallyConn{Conn: b}, &tallyConn{Conn: a}
	return servePair(t, srv, skeleton, serverEnd, clientEnd), clientEnd, serverEnd
}

func buildWideModel(seed int64, hidden int) *modular.Model {
	cfg := modular.Config{ModulesPerLayer: 4, TopK: 2, EmbedDim: 16, ResidualModules: true, MinShrink: 0.25, MaxShrink: 0.5}
	return modular.NewModularMLP(tensor.NewRNG(seed), 16, hidden, 4, cfg)
}

// TestOneWritePerMessage pins the write shape of a v2 exchange: a protocol
// message — envelope plus every chunk frame it announces — is encoded into
// the codec's 64 KiB buffer and flushed once, so a message that fits the
// buffer is one Write on the transport however many frames it has, and a
// larger one is ⌈bytes/64 KiB⌉ (one more allowed for a frame that straddles
// a flush). One write per frame is what FaultyConn's per-write drop and delay
// rolls used to multiply by.
func TestOneWritePerMessage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		hidden int
	}{{"fits the buffer", 64}, {"spans buffers", 256}} {
		t.Run(tc.name, func(t *testing.T) {
			cloud := buildWideModel(31, tc.hidden)
			srv := NewServer(cloud, 1)
			cl, clientEnd, serverEnd := tallyPair(t, srv, buildWideModel(31, tc.hidden))
			if err := cl.Hello(); err != nil {
				t.Fatal(err)
			}
			imp := uniformImportance(cloud)
			// call runs one RPC and returns the writes and bytes it cost in
			// each direction.
			call := func(rpc func() error) (upWrites, upBytes, downWrites, downBytes int64) {
				t.Helper()
				in0, out0 := cl.Traffic()
				w0, s0 := clientEnd.writes.Load(), serverEnd.writes.Load()
				if err := rpc(); err != nil {
					t.Fatal(err)
				}
				in1, out1 := cl.Traffic()
				return clientEnd.writes.Load() - w0, out1 - out0, serverEnd.writes.Load() - s0, in1 - in0
			}
			check := func(what string, writes, bytes int64, frames int) {
				t.Helper()
				const buf = 64 << 10
				limit := int64(1)
				if bytes > buf {
					limit = (bytes+buf-1)/buf + 1
				}
				t.Logf("%s: %d B, %d frame(s), %d write(s)", what, bytes, frames, writes)
				if writes < 1 || writes > limit {
					t.Errorf("%s: %d B in %d frames took %d writes, want at most %d", what, bytes, frames, writes, limit)
				}
			}
			var sub *modular.SubModel
			upW, upB, downW, downB := call(func() (err error) {
				sub, err = cl.FetchSubModel(imp, looseBudget())
				return err
			})
			frames := (len(sub.BackboneVector()) + 1023) / 1024
			if frames < 2 {
				t.Fatalf("payload is %d frame(s); the test needs a chunk stream", frames)
			}
			if large := downB > 64<<10; large != (tc.hidden == 256) {
				t.Fatalf("fetch response is %d B, which is not the size this case is named for", downB)
			}
			check("fetch request", upW, upB, 0)
			check("fetch response", downW, downB, frames)
			upW, upB, downW, downB = call(func() error { return cl.PushUpdate(sub, imp, 1) })
			check("push request", upW, upB, frames)
			check("push response", downW, downB, 0)
		})
	}
}

// TestWriteDeadlineRearmsPerFrame: batching a message's frames into one flush
// did not batch its deadline. Both ends still re-arm the write deadline ahead
// of the envelope and of every chunk frame, so the timeout bounds whichever
// physical write comes next rather than the whole payload.
func TestWriteDeadlineRearmsPerFrame(t *testing.T) {
	cloud := buildWideModel(33, 64)
	srv := NewServer(cloud, 1) // WriteTimeout defaults to a minute
	cl, clientEnd, serverEnd := tallyPair(t, srv, buildWideModel(33, 64))
	cl.Policy = RetryPolicy{MaxAttempts: 1, CallTimeout: time.Minute}
	if err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	imp := uniformImportance(cloud)
	s0 := serverEnd.arms.Load()
	sub, err := cl.FetchSubModel(imp, looseBudget())
	if err != nil {
		t.Fatal(err)
	}
	frames := int64(len(sub.BackboneVector())+1023) / 1024
	if got := serverEnd.arms.Load() - s0; got != 1+frames {
		t.Errorf("server armed its write deadline %d times for an envelope and %d frames", got, frames)
	}
	c0 := clientEnd.arms.Load()
	if err := cl.PushUpdate(sub, imp, 1); err != nil {
		t.Fatal(err)
	}
	if got := clientEnd.arms.Load() - c0; got != 1+frames {
		t.Errorf("client armed its write deadline %d times for an envelope and %d frames", got, frames)
	}
}
