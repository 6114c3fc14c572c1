package edgenet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/modular"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/tensor"
)

// RetryPolicy controls client-side resilience: per-call deadlines plus
// reconnect-and-retry with exponential backoff and seeded jitter. The zero
// value means one attempt and no deadline — the pre-fault-tolerance
// behavior, which in-process pipe tests rely on.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call (1 = no retry).
	MaxAttempts int
	// BaseDelay is the first backoff; each retry doubles it up to MaxDelay,
	// then adds up to 100% seeded jitter so a fleet does not retry in
	// lockstep.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// CallTimeout bounds one request/response exchange via the connection
	// deadline; an expired call is treated as lost and retried.
	CallTimeout time.Duration
	// Deadline bounds the whole call: attempts, reconnects, and backoff
	// sleeps together. A backoff that would sleep past it is capped at the
	// remaining budget, and once the budget is spent the call returns
	// ErrCallDeadline promptly instead of burning the remaining attempts —
	// without this, a call given 100ms could still block a full MaxDelay
	// backoff before failing. 0 means no whole-call bound.
	Deadline time.Duration
	// Seed drives the jitter sequence (mixed with the device ID), keeping
	// retry schedules replayable.
	Seed int64
}

// DefaultRetryPolicy is what the testbed binaries use over real networks.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, CallTimeout: 15 * time.Second, Deadline: 30 * time.Second, Seed: 1}
}

// Backoff is the pre-jitter sleep after failed try attempt (counted from 1)
// and before the next: BaseDelay·2^(attempt−1), capped at MaxDelay (0 = no
// cap). The client sleeps it plus jitter; fed.FaultModel charges it as is.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt && d > 0; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			return p.MaxDelay
		}
	}
	return d
}

// ErrCallDeadline is returned when RetryPolicy.Deadline expires before an
// attempt succeeds; it wraps the last transport error for context.
var ErrCallDeadline = errors.New("edgenet: call deadline exceeded")

// RetryStats counts the client's recovery actions.
type RetryStats struct {
	Retries    int64 // calls re-sent after a transport error
	Reconnects int64 // successful redials
	Timeouts   int64 // calls abandoned on the per-call deadline
}

// EdgeClient is the device side of the testbed protocol. It holds a local
// model skeleton (built from the shared task seed, so architectures agree
// with the cloud) whose selector is refreshed by Hello and from which
// received sub-models are instantiated.
type EdgeClient struct {
	DeviceID int
	Skeleton *modular.Model
	// Policy configures per-call deadlines and retries. Retrying needs
	// Redial: a gob stream is stateful, so recovery always means a fresh
	// connection and codec.
	Policy RetryPolicy
	// Redial reopens the transport after a failure. Dial installs a TCP
	// redialer; pipe clients may set one (tests do) or live without retries.
	Redial func() (io.ReadWriteCloser, error)
	// WireOpts tunes the payload codec (top-k sparsification for delta
	// pushes). Zero value: dense.
	WireOpts WireOpts
	// Spans, when set, records distributed-trace spans for every call made
	// under a trace context (SetTraceContext). Nil or no context = tracing
	// off; span recording is write-only and never alters protocol behavior.
	Spans *span.Recorder

	codec  *Codec
	closer io.Closer
	dl     connDeadliner // non-nil when the transport supports deadlines
	rng    *rand.Rand    // jitter; lazily seeded from Policy.Seed and DeviceID
	seq    int64         // PushUpdate round tag (see Request.Seq)
	// Distributed-trace context for subsequent calls (SetTraceContext);
	// stamped onto every outgoing Request so server-side phase spans join
	// the caller's trace.
	traceID     span.TraceID
	traceParent span.SpanID
	stats       RetryStats
	ref         *WireRef // reconstruction of the last sub-model fetch (delta base)
	// enc builds the pushes: each is written out before the next is encoded.
	enc Encoder
	// maxVecLen is Skeleton's full backbone length (see maxVec); computed at
	// the first payload.
	maxVecLen int

	// traffic accumulated over connections torn down by reconnects.
	pastIn, pastOut int64
}

// Dial connects to the cloud server over TCP with the default retry policy.
// It parks skeleton (modular.Model.Park): on the edge the skeleton is
// architecture plus selector and is never trained, so it keeps no gradient
// accumulators for a cloud-sized model the device only ever holds a part of.
func Dial(addr string, deviceID int, skeleton *modular.Model) (*EdgeClient, error) {
	return dialWrapped(addr, deviceID, skeleton, nil)
}

// DialFaulty connects like Dial but wraps the connection — and every
// reconnect — in a seeded fault injector, for lossy-network replay without a
// lossy network. Each reconnect derives a distinct injector seed so retries
// do not replay the identical fault forever.
func DialFaulty(addr string, deviceID int, skeleton *modular.Model, cfg FaultConfig) (*EdgeClient, error) {
	var conns atomic.Int64
	return dialWrapped(addr, deviceID, skeleton, func(c net.Conn) net.Conn {
		sub := cfg
		sub.Seed = cfg.Seed + int64(deviceID)*1_000_003 + conns.Add(1) - 1
		return NewFaultyConn(c, sub)
	})
}

func dialWrapped(addr string, deviceID int, skeleton *modular.Model, wrap func(net.Conn) net.Conn) (*EdgeClient, error) {
	redial := func() (io.ReadWriteCloser, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("edgenet: dial %s: %w", addr, err)
		}
		if wrap != nil {
			return wrap(conn), nil
		}
		return conn, nil
	}
	rw, err := redial()
	if err != nil {
		return nil, err
	}
	skeleton.Park()
	c := &EdgeClient{DeviceID: deviceID, Skeleton: skeleton, Policy: DefaultRetryPolicy(), Redial: redial}
	c.attach(rw)
	return c, nil
}

// NewPipeClient wraps an in-process stream (e.g. net.Pipe) — used by tests
// and the simulation harness. Like Dial, it parks skeleton.
func NewPipeClient(rw io.ReadWriter, deviceID int, skeleton *modular.Model) *EdgeClient {
	skeleton.Park()
	c := &EdgeClient{DeviceID: deviceID, Skeleton: skeleton}
	c.attach(rw)
	return c
}

// attach points the client at a fresh transport.
func (c *EdgeClient) attach(rw io.ReadWriter) {
	c.codec = NewCodec(rw)
	if cl, ok := rw.(io.Closer); ok {
		c.closer = cl
	} else {
		c.closer = nil
	}
	if dl, ok := rw.(connDeadliner); ok {
		c.dl = dl
	} else {
		c.dl = nil
	}
}

// Close tears down the connection.
func (c *EdgeClient) Close() error {
	if c.closer != nil {
		return c.closer.Close()
	}
	return nil
}

// Traffic returns bytes received and sent by this client, including over
// connections discarded by reconnects.
func (c *EdgeClient) Traffic() (in, out int64) {
	in, out = c.codec.Traffic()
	return in + c.pastIn, out + c.pastOut
}

// RetryStats reports the client's recovery counters.
func (c *EdgeClient) RetryStats() RetryStats { return c.stats }

// SetTraceContext attaches a distributed-trace context to subsequent calls:
// RPC spans recorded by this client become children of parent within trace t.
// A zero trace (unsampled) turns client-side span recording off; the device
// loop calls this once per round with the round's sampling decision.
func (c *EdgeClient) SetTraceContext(t span.TraceID, parent span.SpanID) {
	c.traceID, c.traceParent = t, parent
}

// ctxSpan opens a span under the client's current trace context. Returns the
// zero Active (all methods no-ops) when tracing is off.
func (c *EdgeClient) ctxSpan(kind string, parent span.SpanID) span.Active {
	a := c.Spans.Start(c.traceID, parent, kind)
	a.SetDevice(c.DeviceID)
	return a
}

// call runs one request with the retry policy. Every protocol request is
// safe to retry: Hello/FetchSubModel/Stats are idempotent reads,
// and PushUpdate is round-tagged so the server dedupes replays.
func (c *EdgeClient) call(req *Request) (*Response, error) {
	resp, _, err := c.callChunks(req, nil)
	return resp, err
}

// callChunks is call plus the chunk streams: out frames are written after
// the request envelope, and a response that announces a payload has its
// frames read back. The returned payload is fully assembled (header +
// chunks) or nil.
func (c *EdgeClient) callChunks(req *Request, out []WireChunk) (*Response, *WirePayload, error) {
	attempts := c.Policy.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var expire time.Time
	if c.Policy.Deadline > 0 {
		expire = time.Now().Add(c.Policy.Deadline) //nolint:rawclock -- whole-call deadline is genuinely wall-clock; never enters simulated costs
	}
	// One call span covers every attempt, backoff, and reconnect; each
	// attempt is its own child, so a trace shows where a slow call actually
	// spent its wall-clock: sleeping, redialing, or on the wire.
	cs := c.ctxSpan("rpc."+kindName(req.Kind), c.traceParent)
	defer cs.End()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if c.Redial == nil {
				break // no way to recover a broken gob stream
			}
			remaining := time.Duration(0)
			if !expire.IsZero() {
				remaining = time.Until(expire)
				if remaining <= 0 {
					// Whole-call budget spent: fail now rather than sleeping
					// a backoff and burning the remaining attempts.
					c.stats.Timeouts++
					clientMetrics.timeouts.Inc()
					err := fmt.Errorf("%w after %d attempts: %v", ErrCallDeadline, attempt, lastErr)
					cs.SetErr(err)
					return nil, nil, err
				}
			}
			bs := c.ctxSpan("rpc.backoff", cs.ID())
			bs.SetAttempt(attempt)
			c.backoff(attempt, remaining)
			bs.End()
			if err := c.reconnect(); err != nil {
				lastErr = err
				continue
			}
			c.stats.Retries++
			clientMetrics.retries.Inc()
		}
		// Work on a private copy: the caller's Request is input, not scratch
		// space. Mutating it here (the old code stamped req.Attempt in place)
		// leaks retry state into whatever the caller does with the struct
		// next — including re-issuing it as a supposedly fresh request.
		r := *req
		r.Attempt = attempt
		// Per-attempt span: the wire context points at it, so server handler
		// phases parent under the attempt that actually carried them. When
		// tracing is off the attempt span is zero and the request stays
		// untraced (TraceID 0).
		as := c.ctxSpan("rpc.attempt", cs.ID())
		as.SetAttempt(attempt)
		r.TraceID = uint64(c.traceID)
		r.SpanID = uint64(as.ID())
		to := time.Duration(0)
		if c.dl != nil && c.Policy.CallTimeout > 0 {
			to = c.Policy.CallTimeout
			if !expire.IsZero() {
				if rem := time.Until(expire); rem < to {
					to = rem // an attempt may not outlive the whole-call budget
				}
			}
		}
		sw := obs.StartTimer()
		inBefore, outBefore := c.codec.Traffic()
		resp, pay, err := c.exchange(&r, out, to)
		if c.dl != nil && c.Policy.CallTimeout > 0 {
			_ = c.dl.SetReadDeadline(time.Time{})
			_ = c.dl.SetWriteDeadline(time.Time{})
		}
		if err == nil || resp != nil {
			// The exchange completed — either cleanly or as a server-side
			// application error (resp non-nil means a full round trip
			// happened; the transport is fine and a retry would just repeat
			// the rejection). Both outcomes moved real bytes and took real
			// time, so both are observed: skipping the error path (as the
			// old code did) silently dropped every rejected RPC from the
			// latency and size histograms.
			in, out := c.codec.Traffic()
			clientMetrics.reqBytes[req.Kind].Observe(float64(out - outBefore))
			clientMetrics.rspBytes[req.Kind].Observe(float64(in - inBefore))
			clientMetrics.rpcSeconds[req.Kind].ObserveSince(sw)
			as.SetBytes(out - outBefore + in - inBefore)
			as.SetErr(err)
			as.End()
			cs.SetErr(err)
			return resp, pay, err
		}
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			c.stats.Timeouts++
			clientMetrics.timeouts.Inc()
		}
		as.SetErr(err)
		as.End()
		lastErr = err
	}
	cs.SetErr(lastErr)
	return nil, nil, lastErr
}

// exchange performs one request/response round trip including chunk
// streams. Deadlines (when to > 0 and the transport supports them) re-arm
// before every frame, so the timeout bounds one stalled write or frame read
// rather than requiring the whole payload to fit inside it.
func (c *EdgeClient) exchange(req *Request, out []WireChunk, to time.Duration) (*Response, *WirePayload, error) {
	armRead, armWrite := func() {}, func() {}
	if c.dl != nil && to > 0 {
		armRead = func() {
			_ = c.dl.SetReadDeadline(time.Now().Add(to)) //nolint:rawclock -- socket deadlines are genuinely wall-clock; never enters simulated costs
		}
		armWrite = func() {
			_ = c.dl.SetWriteDeadline(time.Now().Add(to)) //nolint:rawclock -- socket deadlines are genuinely wall-clock; never enters simulated costs
		}
	}
	armRead()
	if err := c.codec.sendMessage(req, out, armWrite); err != nil {
		return nil, nil, err
	}
	var resp Response
	if err := c.codec.Recv(&resp); err != nil {
		return nil, nil, fmt.Errorf("edgenet: recv: %w", err)
	}
	var pay *WirePayload
	if resp.OK && resp.Payload != nil {
		var err error
		if pay, err = c.codec.recvPayload(resp.Payload, c.maxVec(), armRead); err != nil {
			return nil, nil, err
		}
	}
	if !resp.OK {
		return &resp, nil, fmt.Errorf("edgenet: remote error: %s", resp.Error)
	}
	return &resp, pay, nil
}

// backoff sleeps the policy's Backoff plus seeded jitter. The sleep never
// exceeds remaining (the call's unspent deadline budget; 0 = unbounded), so
// a tight deadline fails promptly instead of blocking a full MaxDelay first.
// The jitter draw happens before the cap, keeping the seeded jitter sequence
// identical whether or not a deadline is set.
func (c *EdgeClient) backoff(attempt int, remaining time.Duration) {
	d := c.Policy.Backoff(attempt)
	if d <= 0 {
		return
	}
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.Policy.Seed + int64(c.DeviceID)*7919))
	}
	d += time.Duration(c.rng.Int63n(int64(d) + 1))
	if remaining > 0 && d > remaining {
		d = remaining
	}
	time.Sleep(d)
}

// reconnect bank-accounts the dead connection's traffic and dials afresh.
func (c *EdgeClient) reconnect() error {
	in, out := c.codec.Traffic()
	c.pastIn += in
	c.pastOut += out
	if c.closer != nil {
		_ = c.closer.Close()
	}
	rw, err := c.Redial()
	if err != nil {
		return err
	}
	c.attach(rw)
	c.stats.Reconnects++
	clientMetrics.reconnects.Inc()
	return nil
}

// maxVec returns Skeleton's full backbone length, the longest vector either
// direction of this link carries.
func (c *EdgeClient) maxVec() int {
	if c.maxVecLen == 0 {
		c.maxVecLen = fullBackboneLen(c.Skeleton)
	}
	return c.maxVecLen
}

// Hello fetches the current unified selector into the local skeleton and
// checks that both ends speak the same protocol version: the client names
// its own, the server refuses any other, and the client refuses a reply that
// names another. Run once after connecting; the device then scores module
// importance locally.
func (c *EdgeClient) Hello() error {
	resp, err := c.call(&Request{Kind: KindHello, DeviceID: c.DeviceID, Proto: ProtoVersion})
	if err != nil {
		return err
	}
	if resp.Proto != ProtoVersion {
		return fmt.Errorf("edgenet: hello: server speaks protocol version %d, this client speaks version %d", resp.Proto, ProtoVersion)
	}
	// A malformed reply must not panic the device loop (mirrors the
	// server's safeLoad guard for uploads).
	if err := safeLoadSelector(c.Skeleton.Selector, resp.Selector); err != nil {
		return fmt.Errorf("edgenet: hello: %w", err)
	}
	return nil
}

// safeLoadSelector converts a selector-vector length/shape panic into an
// error.
func safeLoadSelector(sel *modular.Selector, vec []float32) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("bad selector vector: %v", r)
		}
	}()
	sel.LoadVector(vec)
	return nil
}

// FetchSubModel asks the cloud to derive a personalized sub-model for the
// given importance/budget and instantiates it locally. The parameters arrive
// as a chunk-streamed quantized payload — delta-encoded against the previous
// fetch whenever the server still holds the matching reference — and the
// decoded reconstruction becomes the client's new delta base for both the
// next fetch and the next push.
//
// The sub-model is built from the received vector alone (the skeleton lends
// its architecture, its module states and a copy of its selector) and is
// weights-only: it evaluates as it is, and trains once its parameters have
// gradient accumulators — nn.EnsureGrads, which fed.TrainLayer calls.
func (c *EdgeClient) FetchSubModel(importance [][]float64, budget modular.Budget) (*modular.SubModel, error) {
	req := &Request{
		Kind:       KindGetSubModel,
		DeviceID:   c.DeviceID,
		Importance: importance,
		Budget:     FromBudget(budget),
	}
	if c.ref != nil {
		req.HaveVer = c.ref.Version
	}
	resp, pay, err := c.callChunks(req, nil)
	if err != nil {
		return nil, err
	}
	if pay == nil {
		return nil, errors.New("edgenet: fetch: reply carries no payload")
	}
	// The server checked the structure before it coded a delta; this end
	// checks only that the version it names is the one held here. A delta is
	// decoded onto the reference's own array — nothing else reads it, and the
	// whole payload has validated before the first element is written; a full
	// payload (or a moved structure, which is always full) gets a new
	// reference, and the one it replaces goes back.
	var base []float32
	if pay.Header.Delta {
		if c.ref == nil || c.ref.Version != pay.Header.BaseVer {
			return nil, fmt.Errorf("edgenet: fetch: delta against version %d, which this client does not hold", pay.Header.BaseVer)
		}
		base = c.ref.Vec
	}
	if err := pay.check(base); err != nil {
		return nil, fmt.Errorf("edgenet: fetch: %w", err)
	}
	if !pay.Header.Delta {
		c.ref.Release()
		c.ref = borrowRef(0, resp.Active, pay.Header.Len)
	}
	pay.decodeInto(c.ref.Vec, base)
	c.ref.Version = pay.Header.Version
	// The reference stays what the server holds and the sub-model is about to
	// be trained: it gets its own copy of the vector to live in.
	sub, err := c.Skeleton.SubModelOver(resp.Active, append([]float32(nil), c.ref.Vec...))
	if err != nil {
		return nil, fmt.Errorf("edgenet: fetch: %w", err)
	}
	sub.Selector = c.Skeleton.Selector.Clone()
	return sub, nil
}

// PushUpdate uploads a locally trained sub-model with its importance scores
// and aggregation weight. Each update carries a monotonic Seq; a retry
// resends the same Seq, and the server applies at most once.
//
// The backbone travels as a chunk-streamed quantized payload, delta-encoded
// (with optional top-k sparsification, WireOpts.TopK) against the
// reconstruction of the last fetch when the mapping is unchanged. If the
// server no longer holds that reference it answers NeedFull, and the same
// update — same Seq — is re-sent once as a full payload.
func (c *EdgeClient) PushUpdate(sub *modular.SubModel, importance [][]float64, weight float64) error {
	c.seq++
	req := &Request{
		Kind:       KindPushUpdate,
		DeviceID:   c.DeviceID,
		Seq:        c.seq,
		Active:     sub.Mapping,
		Importance: importance,
		Weight:     weight,
	}
	// The flat vector dies with this call, so its array is borrowed.
	sc := tensor.GetScratch(c.maxVec())
	defer tensor.PutScratch(sc)
	vec := sub.AppendBackboneVector(sc.Data[:0])
	p := c.enc.Exchange(vec, c.ref.Base(sub.Mapping), c.WireOpts, nil)
	if p.Header.Delta {
		p.Header.BaseVer = c.ref.Version
	}
	req.Payload = &p.Header
	resp, _, err := c.callChunks(req, p.Chunks)
	if resp != nil && resp.NeedFull {
		// The server lost our reference (restart, cache eviction). The
		// update itself is fine — re-send it whole under the same Seq.
		c.ref.Release()
		c.ref = nil
		clientMetrics.wireFallbacks.Inc()
		full := c.enc.Exchange(vec, nil, c.WireOpts, nil)
		req.Payload = &full.Header
		_, _, err = c.callChunks(req, full.Chunks)
	}
	return err
}

// Stats fetches server counters.
func (c *EdgeClient) Stats() (Stats, error) {
	resp, err := c.call(&Request{Kind: KindStats, DeviceID: c.DeviceID})
	if err != nil {
		return Stats{}, err
	}
	return resp.Stats, nil
}
