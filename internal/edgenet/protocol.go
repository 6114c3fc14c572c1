// Package edgenet implements the edge-cloud communication substrate: a
// protocol of gob envelopes and flat chunk frames over TCP between a cloud
// server holding the modularized model and edge clients that request
// personalized sub-models and push back local updates. It replaces the paper's
// WiFi-LAN testbed; all traffic is counted byte-accurately for the
// communication-cost experiments.
//
// Architecture travels as the per-layer active-module index sets; both sides
// build identical model skeletons from the shared task seed, so only
// parameter vectors cross the wire.
package edgenet

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/modular"
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
	// chunk frames follow this envelope on the stream. A push without
	// one is an error reply.
	Payload *WireHeader
}

// BudgetMsg mirrors modular.Budget for the wire (kept separate so protocol
// stability does not depend on internal struct layout).
type BudgetMsg struct {
	CommBytes float64
	FwdFLOPs  float64
	MemElems  float64
}

// ToBudget converts the wire form.
func (b BudgetMsg) ToBudget() modular.Budget {
	return modular.Budget{CommBytes: b.CommBytes, FwdFLOPs: b.FwdFLOPs, MemElems: b.MemElems}
}

// FromBudget converts to the wire form.
func FromBudget(b modular.Budget) BudgetMsg {
	return BudgetMsg{CommBytes: b.CommBytes, FwdFLOPs: b.FwdFLOPs, MemElems: b.MemElems}
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
	// chunk frames follow this envelope.
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

// Codec frames protocol messages over a stream and counts traffic: envelopes
// (Request, Response, the WireHeader inside them) are gob, the chunk frames an
// envelope announces are flat bytes (writeFrame). One buffered reader feeds
// both: it is an io.ByteReader, so the gob decoder reads through it, takes
// exactly its message's bytes and leaves the next frame where readFrame finds
// it.
type Codec struct {
	enc *gob.Encoder
	dec *gob.Decoder
	w   *bufio.Writer
	r   *bufio.Reader
	in  atomic.Int64
	out atomic.Int64

	// What recvPayload returned last and builds the next payload in: the
	// chunk table and the frame bytes its codes view.
	pay    WirePayload
	frames []byte
}

// NewCodec wraps a bidirectional stream. Outbound output is buffered and
// flushed once per protocol message (Send, sendMessage): gob emits type
// descriptors and values as separate small writes, and a v2 payload is an
// envelope plus a frame per chunk; coalescing them keeps one message ≈ one
// wire write — which matters under fault injection, where each write rolls
// for loss independently. The read buffer is the size gob would wrap the
// stream in itself.
func NewCodec(rw io.ReadWriter) *Codec {
	c := &Codec{}
	cc := countingConn{rw: rw, in: &c.in, out: &c.out}
	c.w = bufio.NewWriterSize(cc, 64<<10)
	c.r = bufio.NewReaderSize(cc, 4<<10)
	c.enc = gob.NewEncoder(c.w)
	c.dec = gob.NewDecoder(c.r)
	return c
}

// Send writes one message — a *WireChunk as its flat frame, anything else as
// gob — and flushes it to the wire.
func (c *Codec) Send(v any) error {
	var err error
	if ch, ok := v.(*WireChunk); ok {
		err = writeFrame(c.w, ch)
	} else {
		err = c.enc.Encode(v)
	}
	if err != nil {
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
// payload.
func (c *Codec) sendMessage(env any, chunks []WireChunk, arm func()) error {
	arm()
	if err := c.enc.Encode(env); err != nil {
		return fmt.Errorf("edgenet: send: %w", err)
	}
	for i := range chunks {
		arm()
		if err := writeFrame(c.w, &chunks[i]); err != nil {
			return fmt.Errorf("edgenet: send chunk %d/%d: %w", i+1, len(chunks), err)
		}
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("edgenet: send: %w", err)
	}
	return nil
}

// Recv decodes a gob message into v.
func (c *Codec) Recv(v any) error { return c.dec.Decode(v) }

// Traffic returns bytes read and written so far.
func (c *Codec) Traffic() (in, out int64) { return c.in.Load(), c.out.Load() }

// A chunk frame (docs/PROTOCOL.md "Chunk frame") is a u32 size and that many
// bytes, little-endian: flags and a u24 element count N (the 4 B chunk
// header), Min and Scale, K int8 codes, and K 2 B offsets when sparse — a
// chunk's wireBytes behind 4 B of length. Flag bit 0 marks a sparse chunk;
// every other bit must be 0 (bit 1 was version 3's 2-byte codes).
const frameSparse = 1 << 0

// writeFrame writes c's frame into w (no flush). A chunk the layout cannot
// hold — codes and offsets that do not pair up — is an error: the receiver
// would read some other chunk.
func writeFrame(w *bufio.Writer, c *WireChunk) error {
	codes := len(c.Q8.Codes)
	if c.N < 0 || c.N >= 1<<24 || (c.Sparse && codes != len(c.Idx)) || (!c.Sparse && len(c.Idx) != 0) {
		return fmt.Errorf("%w: no frame for a chunk of %d elements, %d codes, %d offsets", errWire, c.N, codes, len(c.Idx))
	}
	flags := uint32(0)
	if c.Sparse {
		flags = frameSparse
	}
	// Built in the writer's own free space: a slice handed to Write escapes
	// through the io.Writer behind it, and would cost an allocation a frame.
	hdr := binary.LittleEndian.AppendUint32(w.AvailableBuffer(), uint32(c.wireBytes()))
	hdr = binary.LittleEndian.AppendUint32(hdr, flags|uint32(c.N)<<8)
	hdr = binary.LittleEndian.AppendUint32(hdr, math.Float32bits(c.Q8.Min))
	hdr = binary.LittleEndian.AppendUint32(hdr, math.Float32bits(c.Q8.Scale))
	hdr = append(hdr, c.Q8.Codes...)
	for _, v := range c.Idx {
		hdr = binary.LittleEndian.AppendUint16(hdr, v)
	}
	_, err := w.Write(hdr)
	return err
}

// readFrame reads one frame from r into ch, whose int8 codes view the frame's
// bytes: the front of free when the frame fits there, an array of its own when
// not; the rest of free is returned. The size, flags and element count are
// the peer's word: they are held, on the frame's first 8 bytes alone, against
// a layout this end reads and the most a chunk of the remaining elements —
// what the payload still owes — can occupy (12 B of headers, 3 B an element:
// a sparse chunk that kept everything), before the body is read or room made
// for it. Checked here is that the frame parses; whether K codes suit N
// elements is WirePayload.check's to say.
func readFrame(r *bufio.Reader, ch *WireChunk, free []byte, remaining int) ([]byte, error) {
	pre, err := r.Peek(8)
	if err != nil {
		return free, err
	}
	size, word := binary.LittleEndian.Uint32(pre), binary.LittleEndian.Uint32(pre[4:])
	flags, n := word&0xff, int(word>>8)
	if size < 12 || uint64(size) > 12+3*uint64(remaining) || flags&^frameSparse != 0 || n > remaining {
		return free, fmt.Errorf("%w: chunk frame of %d bytes, flags %#x, for %d of the %d elements still to come", errWire, size, flags, n, remaining)
	}
	var b []byte
	if int(size) <= len(free) {
		b, free = free[:size:size], free[size:]
	} else {
		b = make([]byte, size)
	}
	if _, err := r.Discard(4); err != nil {
		return free, err
	}
	if _, err := io.ReadFull(r, b); err != nil {
		return free, err
	}
	*ch = WireChunk{N: n, Sparse: flags&frameSparse != 0}
	ch.Q8.Min = math.Float32frombits(binary.LittleEndian.Uint32(b[4:]))
	ch.Q8.Scale = math.Float32frombits(binary.LittleEndian.Uint32(b[8:]))
	b, per := b[12:], 1
	if ch.Sparse {
		per = 3
	}
	if len(b)%per != 0 {
		return free, fmt.Errorf("%w: sparse chunk frame of %d bytes splits into no whole (code, offset) pairs", errWire, size)
	}
	k := len(b) / per
	ch.Q8.Codes, b = b[:k:k], b[k:]
	if ch.Sparse {
		ch.Idx = make([]uint16, k)
		for j := range ch.Idx {
			ch.Idx[j] = binary.LittleEndian.Uint16(b[2*j:])
		}
	}
	return free, nil
}

// RecvPayload reads the chunk frames header h announced, as recvPayload does
// for a caller that sets no deadline.
func (c *Codec) RecvPayload(h *WireHeader, maxLen int) (*WirePayload, error) {
	return c.recvPayload(h, maxLen, func() {})
}

// recvPayload assembles the payload header h announced from the h.Chunks
// frames that follow it on the stream, into the codec's receive buffers: the
// payload is valid until the next one is received. arm runs before every
// frame — where the caller re-arms its read deadline, so a timeout bounds one
// stalled frame, not the whole payload.
//
// The header is the peer's word, so nothing is sized from it until it is
// plausible for this receiver: every chunk reconstructs at least one element,
// and no vector is longer than maxLen, the receiver's own full backbone. A
// rejected header leaves its frames unread on the stream, so like a failed
// frame it ends the connection.
func (c *Codec) recvPayload(h *WireHeader, maxLen int, arm func()) (*WirePayload, error) {
	if h.Len < 0 || h.Len > maxLen || h.Chunks < 0 || h.Chunks > h.Len {
		return nil, fmt.Errorf("edgenet: payload header announces %d chunks for %d elements, this peer's model holds %d",
			h.Chunks, h.Len, maxLen)
	}
	p := &c.pay
	p.Header = *h
	p.Chunks = slices.Grow(p.Chunks[:0], h.Chunks)[:h.Chunks]
	// Room for the frames of a dense int8 payload, and never for more than
	// the vector the header announces; a frame that does not fit gets its own.
	if room := min(h.Len+12*h.Chunks, 4*h.Len); room > len(c.frames) {
		c.frames = make([]byte, room)
	}
	free, remaining := c.frames, h.Len
	for i := range p.Chunks {
		arm()
		var err error
		if free, err = readFrame(c.r, &p.Chunks[i], free, remaining); err != nil {
			return nil, fmt.Errorf("edgenet: recv chunk %d/%d: %w", i+1, h.Chunks, err)
		}
		remaining -= p.Chunks[i].N
	}
	return p, nil
}
