// Package edgenet implements the edge-cloud communication substrate: a
// gob-over-TCP protocol between a cloud server holding the modularized model
// and edge clients that request personalized sub-models and push back local
// updates. It replaces the paper's WiFi-LAN testbed; all traffic is counted
// byte-accurately for the communication-cost experiments.
//
// Architecture travels as the per-layer active-module index sets; both sides
// build identical model skeletons from the shared task seed, so only
// parameter vectors cross the wire.
package edgenet

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/modular"
	"repro/internal/obs/span"
)

// MsgKind discriminates protocol messages.
type MsgKind int

const (
	// KindHello introduces a device and requests the selector package.
	KindHello MsgKind = iota + 1
	// KindGetSubModel requests a personalized sub-model.
	KindGetSubModel
	// KindPushUpdate uploads a locally trained sub-model.
	KindPushUpdate
	// KindStats requests server-side counters.
	KindStats
	// KindShutdown asks the server to stop accepting work.
	KindShutdown
)

// Request is the client→cloud envelope.
type Request struct {
	Kind     MsgKind
	DeviceID int
	// Attempt is 0 on a first send and counts up on client retries; the
	// server tallies nonzero attempts in Stats.Retries.
	Attempt int
	// Seq round-tags a PushUpdate: each client numbers its updates
	// monotonically and resends the same Seq on retry, so the server can
	// dedupe replays (at-most-once application). 0 means untagged.
	Seq int64
	// Proto is the protocol version the client speaks, sent on Hello only:
	// the server refuses a Hello that names any version but its own (a
	// check on outside input, not a negotiation — there is one version).
	Proto int
	// TraceID/SpanID carry the caller's distributed-trace context
	// (internal/obs/span) when span tracing is on; 0 means untraced. gob
	// omits zero values and skips fields the peer does not declare, so
	// span-unaware peers interoperate without ever seeing the context.
	TraceID uint64
	SpanID  uint64

	// GetSubModel fields.
	Importance [][]float64
	Budget     BudgetMsg
	// HaveVer is the version of the client's cached sub-model reconstruction
	// (0 = none); a server that still holds the matching reference sends a
	// delta payload instead of full parameters.
	HaveVer uint64

	// PushUpdate fields.
	Active [][]int
	Weight float64
	// Payload announces the chunk-streamed upload: exactly Payload.Chunks
	// WireChunk frames follow this envelope on the stream. A push without
	// one is an error reply.
	Payload *WireHeader
}

// BudgetMsg mirrors modular.Budget for the wire (kept separate so protocol
// stability does not depend on internal struct layout).
type BudgetMsg struct {
	CommBytes  float64
	FwdFLOPs   float64
	MemElems   float64
	MaxModules int
}

// ToBudget converts the wire form.
func (b BudgetMsg) ToBudget() modular.Budget {
	return modular.Budget{CommBytes: b.CommBytes, FwdFLOPs: b.FwdFLOPs, MemElems: b.MemElems, MaxModules: b.MaxModules}
}

// FromBudget converts to the wire form.
func FromBudget(b modular.Budget) BudgetMsg {
	return BudgetMsg{CommBytes: b.CommBytes, FwdFLOPs: b.FwdFLOPs, MemElems: b.MemElems, MaxModules: b.MaxModules}
}

// Response is the cloud→client envelope.
type Response struct {
	OK    bool
	Error string
	// Deduped marks a PushUpdate reply for an update the server had already
	// applied (a replayed Seq); the retry succeeded but changed nothing.
	Deduped bool
	// NeedFull rejects a delta PushUpdate whose base version the server no
	// longer holds; the client re-sends the same update (same Seq) as a full
	// payload. Never set on success.
	NeedFull bool
	// TraceID echoes the request's distributed-trace context (0 when the
	// request was untraced or the server predates tracing); carried with the
	// same gob zero-value tolerance as Request.TraceID.
	TraceID uint64

	// Hello reply.
	Selector []float32
	// Proto is the protocol version the server speaks; the client refuses a
	// reply that names another.
	Proto int

	// GetSubModel reply.
	Active [][]int
	// Payload announces the chunk-streamed sub-model: exactly Payload.Chunks
	// WireChunk frames follow this envelope.
	Payload *WireHeader

	// Stats reply.
	Stats Stats
}

// Stats are server-side counters.
type Stats struct {
	SubModelsServed int64
	UpdatesReceived int64
	Aggregations    int64
	BytesIn         int64
	BytesOut        int64

	// Fault-tolerance counters (see docs/PROTOCOL.md "Fault model").
	Retries       int64 // requests that arrived with Attempt > 0
	Timeouts      int64 // connections reaped by the server read deadline
	Resets        int64 // connections that died mid-stream (not clean EOF)
	Dedups        int64 // replayed PushUpdates dropped by Seq dedup
	AcceptRetries int64 // transient accept-loop errors survived

	// Wire-format v2 counters (docs/PROTOCOL.md "Wire format v2").
	WireFull      int64 // v2 payloads sent/accepted as full (no usable reference)
	WireDelta     int64 // v2 payloads delta-encoded against a cached reference
	WireFallbacks int64 // delta uploads rejected with NeedFull (stale reference)
}

// countingConn wraps a stream and counts bytes both ways.
type countingConn struct {
	rw      io.ReadWriter
	in, out *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.rw.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.rw.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// Codec frames Requests/Responses over a stream with gob and counts traffic.
type Codec struct {
	enc *gob.Encoder
	dec *gob.Decoder
	w   *bufio.Writer
	in  atomic.Int64
	out atomic.Int64
}

// NewCodec wraps a bidirectional stream. Outbound gob output is buffered and
// flushed once per protocol message (Send, sendMessage): gob emits type
// descriptors and values as separate small writes, and a v2 payload is an
// envelope plus a frame per chunk; coalescing them keeps one message ≈ one
// wire write — which matters under fault injection, where each write rolls
// for loss independently.
func NewCodec(rw io.ReadWriter) *Codec {
	c := &Codec{}
	cc := countingConn{rw: rw, in: &c.in, out: &c.out}
	c.w = bufio.NewWriterSize(cc, 64<<10)
	c.enc = gob.NewEncoder(c.w)
	c.dec = gob.NewDecoder(cc)
	return c
}

// Send encodes any gob-compatible message and flushes it to the wire.
func (c *Codec) Send(v any) error {
	if err := c.enc.Encode(v); err != nil {
		return err
	}
	return c.w.Flush()
}

// sendMessage writes one protocol message — an envelope and the chunk frames
// it announces — into the codec's buffer and flushes once at the end, so the
// message reaches the stream in ⌈bytes/64 KiB⌉ writes (the buffer emptying
// itself when it fills) rather than one per frame. arm runs ahead of the
// envelope and of every chunk frame; it is where the caller re-arms its write
// deadline, which therefore bounds each physical write, never the whole
// payload. chunkSpan opens the span a chunk frame is recorded under (the zero
// Active for a sender that records none).
func (c *Codec) sendMessage(env any, chunks []WireChunk, arm func(), chunkSpan func() span.Active) error {
	arm()
	if err := c.enc.Encode(env); err != nil {
		return fmt.Errorf("edgenet: send: %w", err)
	}
	for i := range chunks {
		arm()
		cs := chunkSpan()
		err := c.enc.Encode(&chunks[i])
		cs.SetErr(err)
		cs.End()
		if err != nil {
			return fmt.Errorf("edgenet: send chunk %d/%d: %w", i+1, len(chunks), err)
		}
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("edgenet: send: %w", err)
	}
	return nil
}

// Recv decodes into v.
func (c *Codec) Recv(v any) error { return c.dec.Decode(v) }

// Traffic returns bytes read and written so far.
func (c *Codec) Traffic() (in, out int64) { return c.in.Load(), c.out.Load() }
