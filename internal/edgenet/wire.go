package edgenet

// Wire-format v2 (docs/PROTOCOL.md "Wire format v2"): sub-model parameter
// payloads travel as a compact header in the request/response envelope plus a
// stream of per-chunk quantized frames, instead of a whole []float32 (or
// []Quantized8) gob field. The codec is pure and deterministic — every
// rounding decision is a fixed rule, never platform- or schedule-dependent —
// so the simulation (internal/fed) and the real wire share it, and delta
// references stay bit-identical on both ends of a link.
//
// Three stacked reductions:
//
//   1. Per-chunk quantization: int8 affine codes (1 B/element + 8 B header
//      per chunk) by default, or float16 (2 B/element) when the caller wants
//      tighter error.
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

	"repro/internal/modular"
	"repro/internal/nn"
)

// ProtoV2 is the protocol version both peers speak: chunk-streamed,
// delta-encoded, quantized payloads. It travels on Hello only, where each end
// checks that the other names the same number.
const ProtoV2 = 2

// WireOpts configures the v2 payload codec.
type WireOpts struct {
	// Chunk is the elements-per-chunk granularity (0 = 1024). Each chunk
	// quantizes over its own range and travels as its own wire frame.
	Chunk int
	// F16 selects float16 codes (2 B/element, relative error ≤ 2⁻¹¹) instead
	// of the default int8 affine codes (1 B/element, error ≤ range/510).
	F16 bool
	// TopK in (0,1) keeps only that fraction of delta coordinates (largest
	// |value| first, index-ascending tie-break) on sparsifiable payloads.
	// 0 or ≥1 means dense. Only meaningful for delta payloads — a full
	// payload has no "unchanged" value for the dropped coordinates.
	TopK float64
}

func (o WireOpts) chunkSize() int {
	if o.Chunk <= 0 {
		return 1024
	}
	return o.Chunk
}

// WireHeader describes a v2 payload. It rides in the Request/Response
// envelope; the chunk frames follow as separate gob messages.
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
	// decode as "unchanged". An explicit flag rather than Idx != nil because
	// gob drops empty slices in transit — a sparse chunk that kept zero
	// coordinates must not arrive looking dense.
	Sparse bool
	// Q8 holds int8 affine codes (dense: N codes; sparse: len(Idx) codes).
	Q8 *nn.Quantized8
	// F16 holds float16 codes when the payload was encoded with WireOpts.F16.
	F16 []uint16
	// Idx lists the in-chunk offsets the codes apply to (Sparse only).
	Idx []uint16
}

// wireBytes is the chunk's analytic wire size: what a compact binary framing
// would spend, and what the simulation charges. 4 B chunk header, 8 B
// quantization header + 1 B/code for int8, 2 B/code for float16, 2 B per
// sparse offset.
func (c *WireChunk) wireBytes() int64 {
	n := int64(4)
	if c.Q8 != nil {
		n += 8 + int64(len(c.Q8.Codes))
	}
	n += 2 * int64(len(c.F16))
	n += 2 * int64(len(c.Idx))
	return n
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
// the payload then reproduces one exact vector on both ends.
func EncodeVec(vec, base []float32, opts WireOpts) *WirePayload {
	delta := base != nil && len(base) == len(vec)
	chunk := opts.chunkSize()
	nChunks := (len(vec) + chunk - 1) / chunk
	p := &WirePayload{
		Header: WireHeader{Delta: delta, Len: len(vec), Chunks: nChunks},
		Chunks: make([]WireChunk, 0, nChunks),
	}

	var cut *topKCut
	var diff []float32 // one chunk of vec − base at a time; never the whole delta
	if delta {
		diff = make([]float32, min(chunk, len(vec)))
		if opts.TopK > 0 && opts.TopK < 1 {
			cut = selectTopK(vec, base, opts.TopK, len(diff))
		}
	}
	for start := 0; start < len(vec); start += chunk {
		end := min(start+chunk, len(vec))
		win := vec[start:end]
		if delta {
			// Re-sliced to one length so the loop carries no bounds check.
			v, b := win, base[start:end]
			win, b = diff[:len(v)], b[:len(v)]
			for i, x := range v {
				win[i] = x - b[i]
			}
		}
		p.Chunks = append(p.Chunks, encodeChunk(win, cut, opts.F16))
	}
	return p
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
// so the kept coordinates are a pure function of the values. encodeChunk
// spends ties as it walks the chunks in index order.
type topKCut struct {
	thr  uint32
	ties int

	// Gather scratch for the sparse chunk encoder, reused across chunks.
	idx  []uint16
	vals []float32
}

// selectTopK finds the boundary that keeps the ⌈frac·n⌉ largest-magnitude
// coordinates of the delta vec − base, or nil when that is all of them (dense
// is strictly cheaper). Linear time: a most-significant-byte-first radix
// select — each of the four passes histograms one key byte under the prefix
// fixed so far and descends into the bucket that holds the k-th largest key.
// The delta is recomputed per pass rather than stored: a subtraction is
// cheaper than a second vector. scratch sizes the cut's gather buffers (the
// largest chunk it will see).
func selectTopK(vec, base []float32, frac float64, scratch int) *topKCut {
	n := len(vec)
	k := int(frac*float64(n) + 0.999999)
	if k < 1 {
		k = 1
	}
	if k >= n {
		return nil
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
	return &topKCut{thr: prefix, ties: rank, idx: make([]uint16, 0, scratch), vals: make([]float32, 0, scratch)}
}

// gather returns the in-chunk offsets and values of the window's kept
// coordinates. The values alias the cut's scratch (quantization copies them
// out); the offsets are the chunk's own.
func (t *topKCut) gather(window []float32) ([]uint16, []float32) {
	idx, vals := t.idx[:0], t.vals[:0]
	for i, v := range window {
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
		idx = append(idx, uint16(i))
		vals = append(vals, v)
	}
	t.idx, t.vals = idx, vals
	return append(make([]uint16, 0, len(idx)), idx...), vals
}

// encodeChunk quantizes one window: dense when cut is nil, else only the
// coordinates inside the top-k boundary.
func encodeChunk(vals []float32, cut *topKCut, f16 bool) WireChunk {
	c := WireChunk{N: len(vals)}
	enc := vals
	if cut != nil {
		c.Sparse = true
		c.Idx, enc = cut.gather(vals)
	}
	if f16 {
		c.F16 = nn.QuantizeF16(enc)
	} else {
		q := nn.Quantize8(enc)
		c.Q8 = &q
	}
	return c
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
	h := p.Header
	if len(p.Chunks) != h.Chunks {
		return nil, fmt.Errorf("%w: %d chunk frames, header says %d", errWire, len(p.Chunks), h.Chunks)
	}
	if h.Delta && len(base) != h.Len {
		return nil, fmt.Errorf("%w: delta of %d elements against reference of %d", errWire, h.Len, len(base))
	}
	total := 0
	for i := range p.Chunks {
		c := &p.Chunks[i]
		codes, err := c.codeCount()
		if err != nil {
			return nil, err
		}
		if c.N < 0 || c.N > h.Len-total {
			return nil, fmt.Errorf("%w: chunks overrun header length %d", errWire, h.Len)
		}
		total += c.N
		if !c.Sparse {
			if codes != c.N {
				return nil, fmt.Errorf("%w: dense chunk carries %d codes for %d elements", errWire, codes, c.N)
			}
			continue
		}
		if !h.Delta {
			return nil, fmt.Errorf("%w: sparse chunk in a full payload", errWire)
		}
		if codes != len(c.Idx) {
			return nil, fmt.Errorf("%w: sparse chunk carries %d codes for %d offsets", errWire, codes, len(c.Idx))
		}
		for _, off := range c.Idx {
			if int(off) >= c.N {
				return nil, fmt.Errorf("%w: sparse offset %d outside chunk of %d", errWire, off, c.N)
			}
		}
	}
	if total != h.Len {
		return nil, fmt.Errorf("%w: chunks reconstruct %d of %d elements", errWire, total, h.Len)
	}

	out := make([]float32, h.Len)
	start := 0
	for i := range p.Chunks {
		c := &p.Chunks[i]
		win := out[start : start+c.N]
		switch {
		case c.Sparse:
			// Unchanged coordinates keep the reference value (delta 0).
			ref := base[start : start+c.N]
			copy(win, ref)
			for j, off := range c.Idx {
				win[off] = ref[off] + c.code(j)
			}
		case h.Delta:
			c.decodeInto(win)
			ref := base[start : start+c.N]
			for j, b := range ref[:len(win)] {
				win[j] = b + win[j]
			}
		default:
			c.decodeInto(win)
		}
		start += c.N
	}
	return out, nil
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

// recvPayload assembles the payload header h announced from h.Chunks frames.
// recvFrame receives one frame and is where the caller re-arms its read
// deadline, so a timeout bounds one stalled frame, not the whole payload.
// The header is the peer's word, so nothing is sized from it until it is
// plausible for this receiver: every chunk reconstructs at least one element,
// and no vector is longer than maxLen, the receiver's own full backbone. A
// rejected header leaves its frames unread on the stream, so like a failed
// frame it ends the connection.
func recvPayload(h *WireHeader, maxLen int, recvFrame func(*WireChunk) error) (*WirePayload, error) {
	if h.Len < 0 || h.Len > maxLen || h.Chunks < 0 || h.Chunks > h.Len {
		return nil, fmt.Errorf("edgenet: payload header announces %d chunks for %d elements, this peer's model holds %d",
			h.Chunks, h.Len, maxLen)
	}
	p := &WirePayload{Header: *h, Chunks: make([]WireChunk, h.Chunks)}
	for i := range p.Chunks {
		if err := recvFrame(&p.Chunks[i]); err != nil {
			return nil, fmt.Errorf("edgenet: recv chunk %d/%d: %w", i+1, h.Chunks, err)
		}
	}
	return p, nil
}

// codeCount checks that the chunk carries one kind of codes and returns how
// many.
func (c *WireChunk) codeCount() (int, error) {
	switch {
	case c.Q8 != nil && c.F16 != nil:
		return 0, fmt.Errorf("%w: chunk carries both int8 and float16 codes", errWire)
	case c.Q8 != nil:
		return len(c.Q8.Codes), nil
	case c.F16 != nil:
		return len(c.F16), nil
	case c.N == 0, c.Sparse && len(c.Idx) == 0:
		// Nothing kept — gob strips the resulting empty code slices, so an
		// all-below-threshold sparse chunk legitimately arrives bare.
		return 0, nil
	default:
		return 0, fmt.Errorf("%w: chunk carries no codes", errWire)
	}
}

// decodeInto expands all of the chunk's codes into dst (one element each).
func (c *WireChunk) decodeInto(dst []float32) {
	if c.Q8 != nil {
		c.Q8.DequantizeInto(dst)
	} else {
		nn.DequantizeF16Into(dst, c.F16)
	}
}

// code expands the chunk's j-th code.
func (c *WireChunk) code(j int) float32 {
	if c.Q8 != nil {
		return c.Q8.At(j)
	}
	return nn.F16ToF32(c.F16[j])
}

// Exchange encodes vec for the wire — delta against base when base is
// non-nil, full otherwise — and returns the payload together with the
// reconstruction its receiver will decode. That reconstruction, not vec, is
// the reference both ends of the link hold for the next exchange.
func Exchange(vec, base []float32, opts WireOpts) (*WirePayload, []float32) {
	p := EncodeVec(vec, base, opts)
	recon, err := DecodeVec(p, base)
	if err != nil {
		// Invariant: DecodeVec accepts every payload EncodeVec builds when
		// handed the base it was built against.
		panic(fmt.Sprintf("edgenet: codec rejected its own payload: %v", err))
	}
	return p, recon
}

// MappingEqual reports whether two per-layer active-module index sets are
// identical — the structural precondition for delta coding.
func MappingEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for l := range a {
		if len(a[l]) != len(b[l]) {
			return false
		}
		for i := range a[l] {
			if a[l][i] != b[l][i] {
				return false
			}
		}
	}
	return true
}

// WireRef is one peer's delta-coding reference for a device: the bit-exact
// reconstruction of the last v2 exchange, its version, and the sub-model
// structure it belongs to. The server keeps one per DeviceID; the client
// keeps its own. References are immutable once created — concurrent readers
// share them safely.
type WireRef struct {
	Version uint64
	Mapping [][]int
	Vec     []float32
}

// Base is the delta-reference rule: a payload for a sub-model of structure
// mapping may be coded against this reference only when the reference has
// that same structure. It returns the reference vector then, and nil — code a
// full payload — otherwise, including on a nil receiver (no reference yet).
// Whether the peer still holds this version is for the caller to settle.
func (r *WireRef) Base(mapping [][]int) []float32 {
	if r == nil || !MappingEqual(r.Mapping, mapping) {
		return nil
	}
	return r.Vec
}
