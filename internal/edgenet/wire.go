package edgenet

// Wire-format v2 (docs/PROTOCOL.md "Wire format v2"): sub-model parameter
// payloads travel as a compact header in the request/response envelope plus a
// stream of per-chunk quantized frames (flat bytes, protocol.go), instead of a
// whole []float32 gob field. The codec is pure and deterministic — every
// rounding decision is a fixed rule, never platform- or schedule-dependent —
// so the simulation (internal/fed) and the real wire share it, and delta
// references stay bit-identical on both ends of a link.
//
// Three stacked reductions:
//
//   1. Per-chunk quantization: int8 affine codes, 1 B/element plus an 8 B
//      range header for each chunk of chunkLen elements.
//   2. Delta encoding: when both peers hold the same reference version of a
//      device's sub-model, only the (small-range, hence finely quantized)
//      difference crosses the wire. Cache miss or version mismatch falls
//      back to a full payload — never an error.
//   3. Deterministic top-k sparsification (pushes): keep the fraction of
//      delta coordinates with the largest magnitude (ties broken by index;
//      see magKey for the total order), ship them as per-chunk (offset,
//      code) pairs.

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/modular"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ProtoVersion is the protocol version both peers speak: chunk-streamed,
// delta-encoded, int8-quantized payloads whose chunk frames are flat bytes
// (version 2 carried each frame as a gob struct, version 3 had a second,
// 2-byte code kind). It travels on Hello only, where each end checks that the
// other names the same number.
const ProtoVersion = 4

// chunkLen is the elements-per-chunk granularity: each chunk quantizes over
// its own range and travels as its own wire frame.
const chunkLen = 1024

// maxChunk is the most elements a receiver accepts in a sparse chunk: a sparse
// offset is a uint16.
const maxChunk = 1 << 16

// WireOpts configures the v2 payload codec.
type WireOpts struct {
	// TopK in (0,1) keeps only that fraction of delta coordinates (largest
	// |value| first, index-ascending tie-break) on sparsifiable payloads.
	// 0 or ≥1 means dense. Only meaningful for delta payloads — a full
	// payload has no "unchanged" value for the dropped coordinates.
	TopK float64
}

// WireHeader describes a v2 payload. It rides in the Request/Response
// envelope (gob); the chunk frames follow it on the stream as flat bytes.
type WireHeader struct {
	// Delta marks the codes as differences against the BaseVer reference.
	Delta bool
	// BaseVer is the reference version a delta decodes against (0 for full).
	BaseVer uint64
	// Version is the reference version the decoded vector installs.
	Version uint64
	// Len is the total element count of the decoded vector.
	Len int
	// Chunks is the number of WireChunk frames that follow the envelope.
	Chunks int
}

// WireChunk is one frame of a v2 payload: a quantized slice of the vector,
// dense or sparse.
type WireChunk struct {
	// N is the dense element count this chunk reconstructs.
	N int
	// Sparse marks a top-k chunk: only the Idx offsets carry codes, the rest
	// decode as "unchanged". An explicit flag rather than Idx != nil: a sparse
	// chunk that kept zero coordinates must not look dense.
	Sparse bool
	// Q8 holds the int8 affine codes (dense: N codes; sparse: len(Idx) codes).
	Q8 nn.Quantized8
	// Idx lists the in-chunk offsets the codes apply to, ascending (Sparse
	// only).
	Idx []uint16
}

// wireBytes is the chunk's wire size: what the simulation charges, and what
// its frame occupies on a real stream behind the frame's 4 B length prefix
// (writeFrame). 4 B chunk header, the quantization's 8 B header and 1 B per
// code, 2 B per sparse offset.
func (c *WireChunk) wireBytes() int64 {
	return 4 + c.Q8.WireBytes() + 2*int64(len(c.Idx))
}

// WirePayload pairs a header with its chunk frames: the in-process form the
// simulation encodes/decodes directly, and the unit tests round-trip. Over
// the real wire the header travels in the envelope and each chunk is its own
// frame.
type WirePayload struct {
	Header WireHeader
	Chunks []WireChunk
}

// WireBytes is the analytic wire size of the whole payload (16 B header plus
// the chunk frames) — the simulation's byte charge for this transfer.
func (p *WirePayload) WireBytes() int64 {
	n := int64(16)
	for i := range p.Chunks {
		n += p.Chunks[i].wireBytes()
	}
	return n
}

// EncodeVec encodes vec as a v2 payload. A non-nil base of identical length
// produces a delta payload (the caller stamps Header.BaseVer/Version with
// its reference bookkeeping); base == nil produces a full payload. The
// encoding is deterministic: equal inputs yield equal payloads, always.
//
// The caller must hold base bit-identically on both peers (it is the
// reconstruction of the previous exchange, not the raw values); DecodeVec on
// the payload then reproduces one exact vector on both ends. The payload is
// built in a fresh Encoder, sized to it, which the caller keeps.
func EncodeVec(vec, base []float32, opts WireOpts) *WirePayload {
	return new(Encoder).Exchange(vec, base, opts, nil)
}

// Encoder holds the arrays a sender builds payloads in: the chunk table, the
// codes and sparse offsets of all the chunks (one array of each, which the
// chunks are windows of), the difference window and the top-k boundary. A
// payload lives until its encoder builds the next one. On the wire a payload
// is dead once sendMessage has written it, and in the simulator once its size
// is charged, so each sender owns one Encoder and reuses its arrays from
// payload to payload, growing them only for a longer vector: a connection's
// handler loop on the server, the EdgeClient for its pushes, each of the
// simulator's workers. The zero value is ready to use.
type Encoder struct {
	pay   WirePayload
	codes []byte
	idx   []uint16
	diff  []float32
	cut   topKCut
	next  int // codes of the payload under construction handed out so far
}

// fit returns s with length n, reallocated only when its capacity is short.
// The elements are unspecified.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Exchange encodes vec for the wire — delta against base when base is
// non-nil, full otherwise — and, when recon is non-nil, writes into its first
// len(vec) elements, every one, the reconstruction its receiver will decode.
// That reconstruction, not vec, is the reference both ends of the link hold
// for the next exchange. It is written chunk by chunk as the chunk is
// quantized, by the loop DecodeVec runs on the far end
// (WireChunk.decodeInto), so the two cannot differ by a bit. The caller owns
// recon's array: on the downlink it is the next WireRef's (Send).
func (e *Encoder) Exchange(vec, base []float32, opts WireOpts, recon []float32) *WirePayload {
	delta := base != nil && len(base) == len(vec)
	nChunks := (len(vec) + chunkLen - 1) / chunkLen
	var cut *topKCut
	nCodes := len(vec) // the codes the payload carries: one an element unless sparse
	if delta {
		e.diff = fit(e.diff, min(chunkLen, len(vec)))
		if opts.TopK > 0 && opts.TopK < 1 {
			if k := e.cut.selectTopK(vec, base, opts.TopK); k < len(vec) {
				cut, nCodes = &e.cut, k
			}
		}
	}
	p := &e.pay
	p.Header = WireHeader{Delta: delta, Len: len(vec), Chunks: nChunks}
	p.Chunks = fit(p.Chunks, nChunks)
	e.codes = fit(e.codes, nCodes)
	if cut != nil {
		e.idx = fit(e.idx, nCodes)
	}
	e.next = 0
	for i, start := 0, 0; start < len(vec); i, start = i+1, start+chunkLen {
		end := min(start+chunkLen, len(vec))
		var ref, out []float32
		if delta {
			ref = base[start:end]
		}
		if recon != nil {
			out = recon[start:end]
		}
		e.exchangeChunk(i, vec[start:end], ref, cut, out)
	}
	return p
}

// exchangeChunk is chunk i's whole walk, made while the chunk is in cache:
// take the difference against ref (the same window of the reference; nil for
// a full payload) into the difference window, finding its range on the way,
// quantize it — only the coordinates inside the top-k boundary when cut is
// set — into the encoder's next codes, and, when recon is there to take it,
// write what the receiver will reconstruct.
func (e *Encoder) exchangeChunk(i int, vals, ref []float32, cut *topKCut, recon []float32) {
	c := &e.pay.Chunks[i]
	*c = WireChunk{N: len(vals)}
	enc := vals
	var lo, hi float32
	switch {
	case cut != nil:
		c.Sparse = true
		k := cut.gather(e.idx[e.next:], e.diff, vals, ref)
		c.Idx, enc = e.idx[e.next:e.next+k:e.next+k], e.diff[:k]
		if k > 0 {
			lo, hi = nn.Range(enc)
		}
	case ref != nil:
		lo, hi = diffRange(e.diff, vals, ref)
		enc = e.diff[:len(vals)]
	default:
		lo, hi = nn.Range(vals)
	}
	end := e.next + len(enc)
	c.Q8 = nn.Quantize8Range(e.codes[e.next:end:end], enc, lo, hi)
	e.next = end
	if recon != nil {
		c.decodeInto(recon, ref)
	}
}

// diffRange writes vals − ref into diff and returns the difference's range,
// found in the same walk with nn.Range's comparisons in nn.Range's order (the
// first difference starts both ends; comparing it with itself moves
// neither). The loop runs in exchangeChunk, a call of its own, so it keeps its
// index in a register: inside encode's chunk loop the compiler spilled it
// every iteration, a sixth of EncodeVec's time.
func diffRange(diff, vals, ref []float32) (lo, hi float32) {
	// Re-sliced to one length so the loop carries no bounds check.
	diff, ref = diff[:len(vals)], ref[:len(vals)]
	lo = vals[0] - ref[0]
	hi = lo
	for i, x := range vals {
		d := x - ref[i]
		diff[i] = d
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	return lo, hi
}

// magKey is a coordinate's selection key: its IEEE-754 bit pattern with the
// sign cleared. Unsigned order on keys is the codec's total order on
// magnitudes — NaN (ordered by payload bits) > +Inf > every finite value,
// denormals included, > 0, with −0 tying +0 — and it agrees with |a| > |b|
// wherever floats compare at all. Ordering bits rather than floats is what
// keeps the selection defined for a diverged device: NaN breaks every float
// comparator, but its key is just a large integer.
func magKey(v float32) uint32 { return math.Float32bits(v) &^ (1 << 31) }

// topKCut is the top-k boundary under (magKey descending, index ascending):
// the selection is every coordinate whose key exceeds thr, plus the first
// ties coordinates, in index order, whose key equals it. That set is unique,
// so the kept coordinates are a pure function of the values. gather spends
// ties as the encoder walks the chunks in index order.
type topKCut struct {
	thr  uint32
	ties int
}

// selectTopK sets t to the boundary that keeps the k = ⌈frac·n⌉
// largest-magnitude coordinates of the delta vec − base and returns k, or n
// when that is all of them (dense is strictly cheaper; t is then unset).
// Linear time: a most-significant-byte-first radix select — each of the four
// passes histograms one key byte under the prefix fixed so far and descends
// into the bucket that holds the k-th largest key. The delta is recomputed per
// pass rather than stored: a subtraction is cheaper than a second vector.
func (t *topKCut) selectTopK(vec, base []float32, frac float64) int {
	n := len(vec)
	// The product is rounded before the add: a platform that fuses the two
	// (arm64 does) would round once, and could keep another count.
	k := int(float64(frac*float64(n)) + 0.999999)
	if k < 1 {
		k = 1
	}
	if k >= n {
		return n
	}
	base = base[:n]
	var prefix, mask uint32
	rank := k // the boundary is the rank-th largest key among those matching prefix
	for shift := 24; shift >= 0; shift -= 8 {
		var hist [256]int
		for i, v := range vec {
			if key := magKey(v - base[i]); key&mask == prefix {
				hist[key>>shift&0xff]++
			}
		}
		b := 255
		for ; hist[b] < rank; b-- {
			rank -= hist[b]
		}
		prefix |= uint32(b) << shift
		mask |= 0xff << shift
	}
	// rank is now the boundary's rank among the coordinates that tie on it.
	t.thr, t.ties = prefix, rank
	return k
}

// gather takes the differences vals − ref of one window and writes the kept
// ones to the front of kept and their in-chunk offsets to the front of idx,
// in index order, and returns how many it kept. Every key above the boundary
// is kept and exactly k coordinates are in all, so idx and kept never fill.
func (t *topKCut) gather(idx []uint16, kept, vals, ref []float32) int {
	ref = ref[:len(vals)]
	m := 0
	for i, x := range vals {
		v := x - ref[i]
		key := magKey(v)
		if key < t.thr {
			continue
		}
		if key == t.thr {
			if t.ties == 0 {
				continue
			}
			t.ties--
		}
		idx[m], kept[m] = uint16(i), v
		m++
	}
	return m
}

// errWire wraps malformed-payload conditions; the transport survives, the
// request fails.
var errWire = errors.New("edgenet: malformed wire payload")

// DecodeVec reconstructs the vector a payload encodes. For delta payloads
// base must be the reference the encoder used (same length, bit-identical
// content); full payloads ignore base. Every malformed condition — length
// mismatch, chunk count mismatch, out-of-range sparse offset — returns an
// error, never panics: payloads cross a network. Every frame is validated
// before the output is allocated, so a peer cannot make the decoder allocate
// more than the reference it already holds (delta) or the codes it actually
// sent (full).
func DecodeVec(p *WirePayload, base []float32) ([]float32, error) {
	if err := p.check(base); err != nil {
		return nil, err
	}
	out := make([]float32, p.Header.Len)
	p.decodeInto(out, base)
	return out, nil
}

// check is DecodeVec's validation: nil means decodeInto can expand p against
// base without indexing outside a chunk, the reference or the output.
func (p *WirePayload) check(base []float32) error {
	h := p.Header
	if len(p.Chunks) != h.Chunks {
		return fmt.Errorf("%w: %d chunk frames, header says %d", errWire, len(p.Chunks), h.Chunks)
	}
	if h.Delta && len(base) != h.Len {
		return fmt.Errorf("%w: delta of %d elements against reference of %d", errWire, h.Len, len(base))
	}
	total := 0
	for i := range p.Chunks {
		c := &p.Chunks[i]
		codes := len(c.Q8.Codes)
		if c.N < 0 || c.N > h.Len-total {
			return fmt.Errorf("%w: chunks overrun header length %d", errWire, h.Len)
		}
		total += c.N
		if !c.Sparse {
			if codes != c.N {
				return fmt.Errorf("%w: dense chunk carries %d codes for %d elements", errWire, codes, c.N)
			}
			continue
		}
		if !h.Delta {
			return fmt.Errorf("%w: sparse chunk in a full payload", errWire)
		}
		if c.N > maxChunk {
			return fmt.Errorf("%w: sparse chunk of %d elements, offsets address %d", errWire, c.N, maxChunk)
		}
		if codes != len(c.Idx) {
			return fmt.Errorf("%w: sparse chunk carries %d codes for %d offsets", errWire, codes, len(c.Idx))
		}
		// Ascending, so no coordinate is written twice and decoding onto the
		// reference's own array equals decoding beside it.
		for j, off := range c.Idx {
			if int(off) >= c.N || (j > 0 && off <= c.Idx[j-1]) {
				return fmt.Errorf("%w: sparse offset %d out of order or outside chunk of %d", errWire, off, c.N)
			}
		}
	}
	if total != h.Len {
		return fmt.Errorf("%w: chunks reconstruct %d of %d elements", errWire, total, h.Len)
	}
	return nil
}

// decodeInto expands p, which check accepted against base, into dst
// (Header.Len elements). dst may be base's own array: every element is
// written from the reference value at its own index only.
func (p *WirePayload) decodeInto(dst, base []float32) {
	start := 0
	for i := range p.Chunks {
		c := &p.Chunks[i]
		var ref []float32
		if p.Header.Delta {
			ref = base[start : start+c.N]
		}
		c.decodeInto(dst[start:start+c.N], ref)
		start += c.N
	}
}

// decodeInto writes the N elements the chunk reconstructs into win: its codes
// expanded, and added to ref, the same window of the reference, when the
// payload is a delta (ref is nil for a full one). This is the one loop that
// turns codes into values — the receiver's, and the sender's when it computes
// what the receiver will hold — and every sum and product in it is rounded to
// float32 on its own (see nn.Quantized8.DequantizeInto).
func (c *WireChunk) decodeInto(win, ref []float32) {
	switch {
	case c.Sparse:
		// Unchanged coordinates keep the reference value (delta 0).
		copy(win, ref)
		for j, off := range c.Idx {
			win[off] = ref[off] + c.Q8.At(j)
		}
	case ref != nil:
		c.Q8.AddInto(win, ref)
	default:
		c.Q8.DequantizeInto(win)
	}
}

// fullBackboneLen is the length of the backbone vector of a sub-model that
// selects every module of m: the longest vector a peer can legitimately send.
func fullBackboneLen(m *modular.Model) int {
	n := nn.ParamCount(m.BackboneParams())
	for _, l := range []nn.Layer{m.Stem, m.Head} {
		for _, st := range nn.LayerStates(l) {
			n += st.Len()
		}
	}
	return n
}

// WireRef is a delta-coding reference for one device, the same type on the
// server, on the client and on the simulated link: the bit-exact
// reconstruction of the last exchange, its version and the sub-model structure
// it belongs to. It owns its copy of the mapping, which nothing edits, and
// keeps its vector in an array lent by the arena (tensor.Borrow). It starts
// with one hold, and Release hands the array back when the last hold goes
// (PROTOCOL.md § Vectors). Only the server takes more holds, one for each
// handler that reads a reference outside its mutex, and counts them under
// that mutex; the client and the simulated link hold each reference once.
type WireRef struct {
	Version uint64
	Mapping [][]int
	Vec     []float32
	buf     *tensor.Tensor
	holds   int
}

// borrowRef returns a reference of version ver for the structure mapping,
// held once, under its own copy of mapping, with an n-element vector lent by
// the arena for the caller to fill.
func borrowRef(ver uint64, mapping [][]int, n int) *WireRef {
	r := &WireRef{Version: ver, Mapping: make([][]int, len(mapping)), buf: tensor.Borrow(n), holds: 1}
	for l, idx := range mapping {
		r.Mapping[l] = slices.Clone(idx)
	}
	r.Vec = r.buf.Data
	return r
}

// Base is the delta-reference rule: a payload for a sub-model of structure
// mapping may be coded against this reference only when the reference has
// that same structure. It returns the reference vector then, and nil — code a
// full payload — otherwise, including on a nil receiver (no reference yet).
// Whether the peer still holds this version is for the caller to settle.
func (r *WireRef) Base(mapping [][]int) []float32 {
	if r == nil || !slices.EqualFunc(r.Mapping, mapping, slices.Equal[[]int]) {
		return nil
	}
	return r.Vec
}

// Send codes vec, the backbone vector of a sub-model of structure mapping,
// for the downlink in enc — dense, and a delta against r when r.Base(mapping)
// allows — and returns the payload, stamped with version ver (and with r's
// version as its base when it is a delta), and the reference both ends hold
// next: the reconstruction its receiver decodes, as version ver. A nil r
// codes a full payload.
func (r *WireRef) Send(enc *Encoder, vec []float32, mapping [][]int, ver uint64) (*WirePayload, *WireRef) {
	base := r.Base(mapping)
	next := borrowRef(ver, mapping, len(vec))
	p := enc.Exchange(vec, base, WireOpts{}, next.Vec)
	p.Header.Version = ver
	if base != nil {
		p.Header.BaseVer = r.Version
	}
	return p, next
}

// Release drops one hold on r (nil is a no-op). When that was the last, it
// hands the array back to the arena, after which nobody may read Vec, and
// returns the bytes it handed back; it returns 0 otherwise.
func (r *WireRef) Release() int {
	if r == nil {
		return 0
	}
	if r.holds--; r.holds > 0 {
		return 0
	}
	n := 4 * cap(r.buf.Data)
	tensor.Release(r.buf)
	r.Vec, r.buf = nil, nil
	return n
}
