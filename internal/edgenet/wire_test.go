package edgenet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"io"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func randVec(rng *tensor.RNG, n int, scale float64) []float32 {
	vec := make([]float32, n)
	for i := range vec {
		vec[i] = float32(rng.NormFloat64() * scale)
	}
	return vec
}

func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i] - b[i])); d > m {
			m = d
		}
	}
	return m
}

// q8Bound is the worst per-element error a chunked int8 encoding of vals can
// introduce: half a step of the widest chunk range.
func q8Bound(vals []float32) float64 {
	var worst float64
	for start := 0; start < len(vals); start += chunkLen {
		end := min(start+chunkLen, len(vals))
		lo, hi := vals[start], vals[start]
		for _, v := range vals[start:end] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if b := float64(hi-lo) / 255 / 2; b > worst {
			worst = b
		}
	}
	return worst
}

func TestEncodeVecFullRoundTripBounded(t *testing.T) {
	rng := tensor.NewRNG(21)
	for _, n := range []int{1, 7, 1024, 1025, 5000} {
		vec := randVec(rng, n, 3)
		p := EncodeVec(vec, nil, WireOpts{})
		if p.Header.Delta || p.Header.Len != n {
			t.Fatalf("n=%d: bad header %+v", n, p.Header)
		}
		back, err := DecodeVec(p, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(back) != n {
			t.Fatalf("n=%d: decoded %d elements", n, len(back))
		}
		if d, bound := maxAbsDiff(vec, back), q8Bound(vec)+1e-6; d > bound {
			t.Fatalf("n=%d: error %v exceeds q8 bound %v", n, d, bound)
		}
		// Fixed framing overhead dominates tiny vectors; compression is only a
		// claim for realistically sized ones.
		if got := p.WireBytes(); n >= 64 && got >= int64(n)*4 {
			t.Fatalf("n=%d: payload %d bytes did not beat float32's %d", n, got, n*4)
		}
	}
}

func TestEncodeVecDeltaRoundTripBounded(t *testing.T) {
	rng := tensor.NewRNG(22)
	base := randVec(rng, 3000, 3)
	vec := make([]float32, len(base))
	for i := range base {
		vec[i] = base[i] + float32(rng.NormFloat64()*0.01) // small drift
	}
	p := EncodeVec(vec, base, WireOpts{})
	if !p.Header.Delta {
		t.Fatal("delta payload expected")
	}
	back, err := DecodeVec(p, base)
	if err != nil {
		t.Fatal(err)
	}
	// The delta's range is the drift's range, so the bound is far tighter
	// than full-payload quantization of vec itself.
	deltas := make([]float32, len(base))
	for i := range base {
		deltas[i] = vec[i] - base[i]
	}
	if d, bound := maxAbsDiff(vec, back), q8Bound(deltas)+1e-6; d > bound {
		t.Fatalf("delta error %v exceeds bound %v", d, bound)
	}
	// And strictly better than encoding vec without the reference.
	full, err := DecodeVec(EncodeVec(vec, nil, WireOpts{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(vec, back) >= maxAbsDiff(vec, full) {
		t.Fatalf("delta error %v not better than full %v", maxAbsDiff(vec, back), maxAbsDiff(vec, full))
	}
}

func TestEncodeVecTopKSparse(t *testing.T) {
	rng := tensor.NewRNG(23)
	base := randVec(rng, 2500, 2)
	vec := append([]float32(nil), base...)
	// Perturb a dispersed 10% of coordinates strongly, everything else barely.
	for i := range vec {
		if i%10 == 3 {
			vec[i] += float32(1 + rng.Float64())
		} else {
			vec[i] += float32(rng.NormFloat64() * 1e-4)
		}
	}
	p := EncodeVec(vec, base, WireOpts{TopK: 0.25})
	kept := 0
	for i := range p.Chunks {
		if !p.Chunks[i].Sparse {
			t.Fatalf("chunk %d not sparse", i)
		}
		kept += len(p.Chunks[i].Idx)
	}
	wantKept := int(0.25*float64(len(vec)) + 0.999999)
	if kept != wantKept {
		t.Fatalf("kept %d coordinates, want %d", kept, wantKept)
	}
	back, err := DecodeVec(p, base)
	if err != nil {
		t.Fatal(err)
	}
	// Every strongly perturbed coordinate must be among the kept ones, so the
	// residual error is the tiny perturbation plus quantization.
	for i := range vec {
		if i%10 == 3 {
			if d := math.Abs(float64(vec[i] - back[i])); d > 0.02 {
				t.Fatalf("large-delta coord %d error %v — top-k missed it", i, d)
			}
		}
	}
	if dense := EncodeVec(vec, base, WireOpts{}); p.WireBytes() >= dense.WireBytes() {
		t.Fatalf("sparse %d bytes not smaller than dense %d", p.WireBytes(), dense.WireBytes())
	}
}

// maskBySort is the selection the codec shipped before the linear-time
// select: a stable sort of the whole index, first k kept. before orders two
// coordinates by their original indices.
func maskBySort(vals []float32, frac float64, before func(i, j int) bool) []bool {
	n := len(vals)
	k := int(frac*float64(n) + 0.999999)
	if k < 1 {
		k = 1
	}
	if k >= n {
		return nil // keep everything: dense is strictly cheaper
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return before(idx[a], idx[b]) })
	keep := make([]bool, n)
	for _, i := range idx[:k] {
		keep[i] = true
	}
	return keep
}

// topKMaskSorted is that sort under its original comparator, (|v| descending,
// index ascending) on floats — the differential oracle. The comparator is
// only a strict weak order on NaN-free input — exactly the defect the key
// order fixes — so the differentials feed it NaN-free vectors and
// topKMaskKeyed covers the rest.
func topKMaskSorted(vals []float32, frac float64) []bool {
	abs32 := func(v float32) float32 {
		if v < 0 {
			return -v
		}
		return v
	}
	return maskBySort(vals, frac, func(i, j int) bool {
		va, vb := abs32(vals[i]), abs32(vals[j])
		if va != vb {
			return va > vb
		}
		return i < j
	})
}

// topKMaskKeyed is the same sort under the documented total order (magKey
// descending, index ascending), defined for every bit pattern.
func topKMaskKeyed(vals []float32, frac float64) []bool {
	return maskBySort(vals, frac, func(i, j int) bool {
		ki, kj := magKey(vals[i]), magKey(vals[j])
		if ki != kj {
			return ki > kj
		}
		return i < j
	})
}

// topKMask is the mask EncodeVec actually ships for vals as the delta: vals
// against an all-zero base (v − 0 is v, bit for bit), read back from the
// payload's sparse offsets. nil means the payload came out dense.
func topKMask(vals []float32, opts WireOpts) []bool {
	p := EncodeVec(vals, make([]float32, len(vals)), opts)
	var keep []bool
	start := 0
	for i := range p.Chunks {
		c := &p.Chunks[i]
		if c.Sparse {
			if keep == nil {
				keep = make([]bool, len(vals))
			}
			for _, off := range c.Idx {
				keep[start+int(off)] = true
			}
		}
		start += c.N
	}
	return keep
}

func TestTopKMaskDeterministicTieBreak(t *testing.T) {
	// All-equal magnitudes: the kept set must be the lowest indices, always.
	vals := []float32{1, -1, 1, -1, 1, -1, 1, -1}
	keep := topKMask(vals, WireOpts{TopK: 0.5})
	want := []bool{true, true, true, true, false, false, false, false}
	if !reflect.DeepEqual(keep, want) {
		t.Fatalf("tie-break not index-ascending: %v", keep)
	}
	// And the whole mask is a pure function: recompute equals.
	if again := topKMask(vals, WireOpts{TopK: 0.5}); !reflect.DeepEqual(keep, again) {
		t.Fatal("topKMask not deterministic")
	}
}

// TestTopKMaskMatchesSortOracle is the differential that lets the linear-time
// select replace the sort: over generated vectors the shipped mask equals the
// sort's, bit for bit — heavy ties, all-equal, k = 1, k = n−1, vectors shorter
// than a chunk and exact multiples of it, ±0, denormals.
func TestTopKMaskMatchesSortOracle(t *testing.T) {
	rng := tensor.NewRNG(31)
	denorm := math.Float32frombits(1) // smallest positive denormal
	gens := []struct {
		name string
		gen  func(i int) float32
	}{
		{"normal", func(int) float32 { return float32(rng.NormFloat64()) }},
		{"heavy ties", func(int) float32 { return float32(rng.Intn(5)-2) * 0.25 }},
		{"all equal", func(int) float32 { return -3 }},
		{"zeros", func(int) float32 { return []float32{0, float32(math.Copysign(0, -1)), 1e-3, -1e-3}[rng.Intn(4)] }},
		{"denormals", func(int) float32 { return float32(rng.Intn(7)-3) * denorm }},
		{"wide range", func(int) float32 { return float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))) }},
		{"ascending", func(i int) float32 { return float32(i) }},
	}
	for _, g := range gens {
		name, gen := g.name, g.gen
		for _, n := range []int{1, 2, 7, 64, 100, 128, 1000, 3 * 1024, 5000} {
			vals := make([]float32, n)
			for i := range vals {
				vals[i] = gen(i)
			}
			fracs := []float64{1 / float64(n), 0.1, 0.25, 0.5, float64(n-1) / float64(n), rng.Float64()}
			for _, frac := range fracs {
				if frac <= 0 || frac >= 1 {
					continue // not a sparsifying fraction (n = 1)
				}
				want := topKMaskSorted(vals, frac)
				if keyed := topKMaskKeyed(vals, frac); !reflect.DeepEqual(keyed, want) {
					t.Fatalf("%s n=%d frac=%v: key order disagrees with the float order on NaN-free input", name, n, frac)
				}
				if got := topKMask(vals, WireOpts{TopK: frac}); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s n=%d frac=%v: mask differs from the sort oracle", name, n, frac)
				}
			}
		}
	}
}

// payloadBits flattens a payload to its exact bits (reflect.DeepEqual cannot
// compare payloads whose quantization headers went NaN).
func payloadBits(p *WirePayload) []uint32 {
	h := p.Header
	out := []uint32{uint32(h.Len), uint32(h.Chunks), uint32(h.BaseVer), uint32(h.Version)}
	if h.Delta {
		out = append(out, 1)
	}
	for i := range p.Chunks {
		c := &p.Chunks[i]
		out = append(out, uint32(c.N), uint32(len(c.Idx)))
		if c.Sparse {
			out = append(out, 1)
		}
		out = append(out, math.Float32bits(c.Q8.Min), math.Float32bits(c.Q8.Scale), uint32(len(c.Q8.Codes)))
		for _, b := range c.Q8.Codes {
			out = append(out, uint32(b))
		}
		for _, v := range c.Idx {
			out = append(out, uint32(v))
		}
	}
	return out
}

// TestEncodeVecNonFinite is the regression test for the diverged-device bug:
// with NaN in the delta the old float comparator was not a strict weak order
// and the sort's result was unspecified. Under the key order the selection is
// total — NaN > ±Inf > finite, −0 ties +0 — so EncodeVec stays a pure function
// and DecodeVec returns without panicking.
func TestEncodeVecNonFinite(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	denorm := math.Float32frombits(3)
	special := []float32{nan, inf, -inf, 0, negZero, denorm, -denorm, 1, -2, -nan}
	rng := tensor.NewRNG(32)
	vals := make([]float32, 2*chunkLen+300)
	for i := range vals {
		vals[i] = special[rng.Intn(len(special))]
	}
	var nans, infs int
	for _, v := range vals {
		switch {
		case v != v:
			nans++
		case math.IsInf(float64(v), 0):
			infs++
		}
	}
	// Exactly the non-finite coordinates fit: all of them are kept, nothing
	// finite is, whatever their positions.
	frac := float64(nans+infs) / float64(len(vals))
	keep := topKMask(vals, WireOpts{TopK: frac})
	for i, v := range vals {
		if nonFinite := v != v || math.IsInf(float64(v), 0); keep[i] != nonFinite {
			t.Fatalf("coordinate %d (%v) kept=%v under a budget of exactly the non-finite ones", i, v, keep[i])
		}
	}
	// One fewer: the budget runs out inside the Inf ties, so the Inf with the
	// highest index is the one dropped and every NaN stays.
	frac = float64(nans+infs-1) / float64(len(vals))
	keep = topKMask(vals, WireOpts{TopK: frac})
	lastInf := -1
	for i, v := range vals {
		if math.IsInf(float64(v), 0) {
			lastInf = i
		}
	}
	for i, v := range vals {
		if want := v != v || (math.IsInf(float64(v), 0) && i != lastInf); keep[i] != want {
			t.Fatalf("coordinate %d (%v) kept=%v, want %v (NaN above Inf, Inf ties by index)", i, v, keep[i], want)
		}
	}
	if want := topKMaskKeyed(vals, frac); !reflect.DeepEqual(keep, want) {
		t.Fatal("mask differs from the key-order oracle")
	}

	base := randVec(rng, len(vals), 1)
	vec := make([]float32, len(vals))
	for i := range vec {
		vec[i] = base[i] + vals[i]
	}
	for _, o := range []WireOpts{{}, {TopK: 0.25}, {TopK: 0.9}} {
		a, b := EncodeVec(vec, base, o), EncodeVec(vec, base, o)
		if !reflect.DeepEqual(payloadBits(a), payloadBits(b)) {
			t.Fatalf("opts %+v: encoding a non-finite vector is not a pure function", o)
		}
		if out, err := DecodeVec(a, base); err != nil || len(out) != len(vec) {
			t.Fatalf("opts %+v: decode of a non-finite payload: %d elements, err %v", o, len(out), err)
		}
		if _, err := DecodeVec(EncodeVec(vec, nil, o), nil); err != nil {
			t.Fatalf("opts %+v: decode of a full non-finite payload: %v", o, err)
		}
	}
}

// FuzzTopKMask: any bit patterns, any fraction — the shipped mask equals the
// sort under the documented key order, and equals the old float-comparator
// sort wherever that one is defined (no NaN).
func FuzzTopKMask(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 128, 191, 0, 0, 128, 63, 0, 0, 128, 191}, uint8(128))             // ±1 ties
	f.Add([]byte{0, 0, 192, 127, 0, 0, 128, 127, 0, 0, 128, 255, 0, 0, 0, 128, 1, 0, 0, 0}, uint8(100)) // NaN, ±Inf, −0, denormal
	f.Add(make([]byte, 4*1300), uint8(7))                                                               // all zero, past a chunk
	f.Fuzz(func(t *testing.T, raw []byte, fracByte uint8) {
		vals := make([]float32, len(raw)/4)
		hasNaN := false
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			hasNaN = hasNaN || vals[i] != vals[i]
		}
		// The selection sees vals − 0, which is vals except that the FPU
		// quiets a signalling NaN; give the oracles the same bits.
		zero := make([]float32, len(vals))
		for i := range vals {
			vals[i] -= zero[i]
		}
		frac := (float64(fracByte) + 0.5) / 256
		got := topKMask(vals, WireOpts{TopK: frac})
		if want := topKMaskKeyed(vals, frac); !reflect.DeepEqual(got, want) {
			t.Fatalf("mask differs from the key-order sort (n=%d frac=%v)", len(vals), frac)
		}
		if !hasNaN {
			if want := topKMaskSorted(vals, frac); !reflect.DeepEqual(got, want) {
				t.Fatalf("mask differs from the float-order sort (n=%d frac=%v)", len(vals), frac)
			}
		}
	})
}

func TestEncodeVecDeterministic(t *testing.T) {
	rng := tensor.NewRNG(25)
	base := randVec(rng, 1500, 2)
	vec := make([]float32, len(base))
	for i := range base {
		vec[i] = base[i] + float32(rng.NormFloat64()*0.05)
	}
	for _, opts := range []WireOpts{{}, {TopK: 0.3}, {TopK: 0.1}} {
		a := EncodeVec(vec, base, opts)
		b := EncodeVec(vec, base, opts)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("opts %+v: encoding not deterministic", opts)
		}
	}
}

// q8Rounding is the float32 rounding a chunked int8 encoding of work can add
// to q8Bound's half step, worst chunk first; vec is what the receiver
// reconstructs (work itself for a full payload, base + work for a delta). With
// u = 2⁻²⁴ the unit roundoff, R = hi − lo and M = max(|lo|, |hi|) the chunk's
// range and largest magnitude, the codec's arithmetic rounds at:
//   - Scale = (hi − lo)/255, one rounding each: a step off by 2u·Scale;
//   - the code's argument (v − lo)·(1/Scale), three roundings: off by 3u·255
//     steps, so the nearest code is off by up to 3u·R beyond half a step;
//   - the decode Min + Scale·code, two roundings: u·R and u·M;
//   - on a delta, the difference vec − base the codec codes (u·M) and the add
//     onto the reference (u·|vec|).
//
// That is 4u·R + 2u·M + u·max|vec| up to terms in u², so 4u·(R + M + max|vec|)
// bounds it with room to spare. Top-k's dropped coordinates rest on the
// difference alone, which this also covers.
func q8Rounding(work, vec []float32) float64 {
	const u = 1.0 / (1 << 24)
	var worst float64
	for start := 0; start < len(work); start += chunkLen {
		end := min(start+chunkLen, len(work))
		var lo, hi, top float64 = math.Inf(1), math.Inf(-1), 0
		for i := start; i < end; i++ {
			lo, hi = math.Min(lo, float64(work[i])), math.Max(hi, float64(work[i]))
			top = math.Max(top, math.Abs(float64(vec[i])))
		}
		if r := 4 * u * (hi - lo + math.Max(-lo, hi) + top); r > worst {
			worst = r
		}
	}
	return worst
}

// TestWireRoundTripDifferential is the fuzz-differential test: random
// vectors, bases, and codec options; decode must always match the
// uncompressed vector within the analytically derived bound — half a step
// plus the codec's own float32 rounding (q8Rounding) — and WireBytes must
// always beat raw float32. The fixed row is an input quick.Check once drew
// that an absolute slack of 1e-5 failed: a full payload of 1631 elements with
// max|v| ≈ 127, whose rounding alone is 1.4e-5 past the half step.
func TestWireRoundTripDifferential(t *testing.T) {
	f := func(seed int64, nRaw uint16, mode uint8) bool {
		rng := tensor.NewRNG(seed%997 + 1)
		n := int(nRaw)%4000 + 1
		vec := randVec(rng, n, math.Pow(10, rng.Float64()*4-2))

		opts := WireOpts{}
		var base []float32
		switch mode % 3 {
		case 1:
			base = randVec(rng, n, 1)
		case 2:
			base = randVec(rng, n, 1)
			opts.TopK = 0.1 + rng.Float64()*0.8
		}

		p := EncodeVec(vec, base, opts)
		back, err := DecodeVec(p, base)
		if err != nil || len(back) != n {
			return false
		}
		// Size must beat raw float32 plus the per-chunk framing overhead
		// (16 B payload header, 12 B per chunk); past a few elements the
		// overhead vanishes and the payload genuinely compresses.
		nChunks := int64((n + chunkLen - 1) / chunkLen)
		if p.WireBytes() > int64(n)*4+16+12*nChunks {
			return false
		}
		if n >= 256 && p.WireBytes() >= int64(n)*4 {
			return false
		}

		work := vec
		if base != nil {
			work = make([]float32, n)
			for i := range vec {
				work[i] = vec[i] - base[i]
			}
		}
		bound := q8Bound(work)
		if opts.TopK > 0 && opts.TopK < 1 {
			// Dropped coordinates keep the base value: their error is their
			// own |delta|, bounded by the smallest kept magnitude ≤ max|work|.
			for _, v := range work {
				if a := math.Abs(float64(v)); a > bound {
					bound = a
				}
			}
		}
		return maxAbsDiff(vec, back) <= bound+q8Rounding(work, vec)
	}
	for _, row := range []struct {
		seed int64
		nRaw uint16
		mode uint8
	}{{-2511429477903777012, 0x44de, 0xf6}} {
		if !f(row.seed, row.nRaw, row.mode) {
			t.Errorf("fixed row %+v exceeds its bound", row)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestWireDeltaReferenceStaysInSync is the property delta coding rests on:
// both peers advance their reference with the *decoded* vector, and chained
// exchanges never diverge.
func TestWireDeltaReferenceStaysInSync(t *testing.T) {
	rng := tensor.NewRNG(26)
	n := 2000
	truth := randVec(rng, n, 1)
	var sender, receiver []float32 // the two peers' references
	for round := 0; round < 20; round++ {
		for i := range truth {
			truth[i] += float32(rng.NormFloat64() * 0.02)
		}
		opts := WireOpts{TopK: 0.5}
		if round%3 == 0 {
			opts = WireOpts{}
		}
		p := EncodeVec(truth, sender, opts)
		got, err := DecodeVec(p, receiver)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Sender reconstructs its own payload the same way to stay in sync.
		mine, err := DecodeVec(p, sender)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(got, mine) {
			t.Fatalf("round %d: references diverged", round)
		}
		sender, receiver = mine, got
	}
	if d := maxAbsDiff(truth, receiver); d > 0.2 {
		t.Fatalf("chained reconstruction drifted %v from truth", d)
	}
}

// malformedPayload is one row of the malformed-payload table: a payload a
// hostile or broken peer could send, and the reference it decodes against.
type malformedPayload struct {
	name string
	p    *WirePayload
	base []float32
	// header marks a row whose header alone condemns it for a receiver whose
	// full backbone is malformedVecLen long: recvPayload must reject it
	// before reading a frame or sizing anything from it.
	header bool
}

// malformedVecLen is the length of the vector the table's payloads encode:
// four chunks, the last ragged.
const malformedVecLen = 3*chunkLen + 100

// malformedPayloads builds the table TestDecodeVecRejectsMalformed checks and
// FuzzDecodeVec starts from.
func malformedPayloads() []malformedPayload {
	rng := tensor.NewRNG(27)
	vec := randVec(rng, malformedVecLen, 1)
	base := randVec(rng, malformedVecLen, 1)

	breakers := []struct {
		name string
		mod  func(p *WirePayload) []float32 // returns decode base
	}{
		{"chunk count lies", func(p *WirePayload) []float32 { p.Header.Chunks++; return nil }},
		{"length overrun", func(p *WirePayload) []float32 { p.Header.Len -= 10; return nil }},
		{"length underrun", func(p *WirePayload) []float32 { p.Header.Len += 10; return nil }},
		{"negative chunk length", func(p *WirePayload) []float32 { p.Chunks[1].N = -32; return nil }},
		{"codes truncated", func(p *WirePayload) []float32 {
			p.Chunks[0].Q8.Codes = p.Chunks[0].Q8.Codes[:10]
			return nil
		}},
		{"no codes", func(p *WirePayload) []float32 { p.Chunks[0].Q8.Codes = nil; return nil }},
		{"delta base length mismatch", func(p *WirePayload) []float32 {
			p.Header.Delta = true
			return base[:50]
		}},
	}
	var out []malformedPayload
	for _, b := range breakers {
		p := EncodeVec(vec, nil, WireOpts{})
		out = append(out, malformedPayload{name: b.name, p: p, base: b.mod(p)})
	}

	// Announced sizes a receiver must not allocate on.
	for _, b := range []struct {
		name string
		mod  func(h *WireHeader)
	}{
		{"negative length", func(h *WireHeader) { h.Len = -1 }},
		{"negative chunk count", func(h *WireHeader) { h.Chunks = -1 }},
		{"chunks outnumber elements", func(h *WireHeader) { h.Chunks = 1 << 20 }},
		{"length above the receiver's model", func(h *WireHeader) { h.Len = 1 << 30 }},
	} {
		p := EncodeVec(vec, nil, WireOpts{})
		b.mod(&p.Header)
		out = append(out, malformedPayload{name: b.name, p: p, header: true})
	}

	// Sparse-specific rows.
	sparse := func() *WirePayload { return EncodeVec(vec, base, WireOpts{TopK: 0.2}) }
	sp := sparse()
	sp.Chunks[0].Idx[0] = chunkLen
	out = append(out, malformedPayload{name: "sparse offset outside chunk", p: sp, base: base})
	sp = sparse()
	sp.Chunks[1].Idx[1] = sp.Chunks[1].Idx[0]
	out = append(out, malformedPayload{name: "sparse offset repeated", p: sp, base: base})
	sp = sparse()
	sp.Chunks[2].Idx[0], sp.Chunks[2].Idx[1] = sp.Chunks[2].Idx[1], sp.Chunks[2].Idx[0]
	out = append(out, malformedPayload{name: "sparse offsets out of order", p: sp, base: base})
	sp = sparse()
	sp.Header.Delta = false
	out = append(out, malformedPayload{name: "sparse chunk in full payload", p: sp})
	sp = sparse()
	sp.Chunks[0].Idx = sp.Chunks[0].Idx[:1]
	out = append(out, malformedPayload{name: "sparse codes without offsets", p: sp, base: base})
	sp = sparse()
	sp.Chunks[3].N = -4
	sp.Chunks[2].N += 8
	out = append(out, malformedPayload{name: "negative sparse chunk length", p: sp, base: base})
	return out
}

// unreadable is the stream behind what recvPayload must reject unread: it
// holds head (a frame's first 8 bytes; nothing, behind a header), and the test
// fails if recvPayload asks for more.
type unreadable struct {
	t    *testing.T
	name string
	head []byte
}

func (u *unreadable) Read(p []byte) (int, error) {
	if len(u.head) == 0 {
		u.t.Fatalf("%s: recvPayload read past what condemns it", u.name)
		return 0, io.EOF
	}
	n := copy(p, u.head)
	u.head = u.head[n:]
	return n, nil
}

func (u *unreadable) Write(p []byte) (int, error) { return len(p), nil }

func TestDecodeVecRejectsMalformed(t *testing.T) {
	// Frames a receiver owed 100 elements refuses on their first 8 bytes,
	// before the body is sized or read: a version-3 frame of 2-byte codes
	// (flag bit 1), and a sparse frame one byte over the bound.
	for _, f := range []struct {
		name string
		head []byte
	}{
		{"a version-3 frame", frameHead(4+2*100, 1<<1, 100)},
		{"a frame one byte over the bound", frameHead(12+3*100+1, frameSparse, 100)},
	} {
		codec := NewCodec(&unreadable{t, f.name, f.head})
		if _, err := codec.RecvPayload(&WireHeader{Len: 100, Chunks: 1}, 100); err == nil {
			t.Fatalf("%s: received", f.name)
		}
	}
	for _, m := range malformedPayloads() {
		if _, err := DecodeVec(m.p, m.base); err == nil {
			t.Fatalf("%s: decode accepted malformed payload", m.name)
		}
		if !m.header {
			continue
		}
		codec := NewCodec(&unreadable{t: t, name: m.name})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := codec.RecvPayload(&m.p.Header, malformedVecLen)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: recvPayload accepted the header", m.name)
		}
		// The error is all the reject path allocates; a frame table sized by
		// the 2^20-chunk row would be ~100 MB. The slack absorbs whatever
		// other goroutines of the test binary allocate meanwhile.
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: rejecting the header allocated %d bytes", m.name, got)
		}
	}
}

// fuzzedPayload is FuzzDecodeVec's input as it crosses the fuzzer: gob, which
// can carry every chunk a peer's memory can hold, the ones the flat frame
// cannot express (FuzzChunkFrame covers that layer) included.
type fuzzedPayload struct {
	P WirePayload
}

// FuzzDecodeVec: whatever a peer sends, DecodeVec returns — a vector of the
// header's length or an error — and never panics or indexes out of range.
func FuzzDecodeVec(f *testing.F) {
	seed := func(p *WirePayload, baseLen int) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(fuzzedPayload{*p}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint16(baseLen))
	}
	for _, m := range malformedPayloads() {
		seed(m.p, len(m.base))
	}
	rng := tensor.NewRNG(28)
	vec, base := randVec(rng, 100, 1), randVec(rng, 100, 1)
	seed(EncodeVec(vec, nil, WireOpts{}), 0)
	seed(EncodeVec(vec, base, WireOpts{TopK: 0.2}), 100)
	f.Fuzz(func(t *testing.T, raw []byte, baseLen uint16) {
		var in fuzzedPayload
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&in); err != nil {
			return // not a payload
		}
		out, err := DecodeVec(&in.P, make([]float32, baseLen))
		if err == nil && len(out) != in.P.Header.Len {
			t.Fatalf("decoded %d elements, header says %d", len(out), in.P.Header.Len)
		}
	})
}

// TestCodecAllocsPerChunk pins the codec's allocation shape: a top-k encode
// makes five allocations however many chunks it cuts — the payload with its
// encoder, the chunk table, the codes, the sparse offsets and one chunk's
// worth of difference window — and an encoder that
// has built as long a payload before (a sender's) makes none; a decode makes
// one — the output — however many chunks it expands. Nothing the size of the
// vector is allocated on the encode side but its codes.
func TestCodecAllocsPerChunk(t *testing.T) {
	rng := tensor.NewRNG(29)
	for _, chunks := range []int{1, 4, 16} {
		n := chunks * chunkLen
		base := randVec(rng, n, 1)
		vec := make([]float32, n)
		for i := range vec {
			vec[i] = base[i] + float32(rng.NormFloat64()*0.01)
		}
		opts := WireOpts{TopK: 0.25}
		if got := testing.AllocsPerRun(20, func() { payloadSink = EncodeVec(vec, base, opts) }); got != 5 {
			t.Errorf("top-k EncodeVec over %d chunks: %v allocations, want 5", chunks, got)
		}
		var enc Encoder
		for _, o := range []WireOpts{opts, {}} {
			enc.Exchange(vec, base, o, nil)
			if got := testing.AllocsPerRun(20, func() { enc.Exchange(vec, base, o, nil) }); got != 0 {
				t.Errorf("%+v over %d chunks in a used encoder: %v allocations, want 0", o, chunks, got)
			}
		}
		for _, p := range []*WirePayload{EncodeVec(vec, base, opts), EncodeVec(vec, base, WireOpts{}), EncodeVec(vec, nil, WireOpts{})} {
			dbase := base
			if !p.Header.Delta {
				dbase = nil
			}
			if got := testing.AllocsPerRun(20, func() {
				if _, err := DecodeVec(p, dbase); err != nil {
					t.Fatal(err)
				}
			}); got != 1 {
				t.Errorf("DecodeVec over %d chunks (%+v): %v allocations, want 1 + 0 per chunk", chunks, p.Header, got)
			}
		}
	}
}

var payloadSink *WirePayload

func TestWireBytesMatchesStructure(t *testing.T) {
	vec := make([]float32, 4000) // four chunks, the last ragged
	for i := range vec {
		vec[i] = float32(i)
	}
	p := EncodeVec(vec, nil, WireOpts{})
	// 16 header + 4 chunks · (4 + 8) + a code an element.
	if want := int64(16 + 4*(4+8) + len(vec)); p.WireBytes() != want {
		t.Fatalf("WireBytes %d, want %d", p.WireBytes(), want)
	}
	base := make([]float32, len(vec))
	s := EncodeVec(vec, base, WireOpts{TopK: 0.1})
	// The 400 largest deltas are the last chunk's: 400 codes and offsets
	// there, none in the other three.
	if want := int64(16 + 4*(4+8) + 400*(1+2)); s.WireBytes() != want {
		t.Fatalf("sparse WireBytes %d, want %d", s.WireBytes(), want)
	}
}

// Chunks of a sparse payload must still reconstruct when a chunk keeps zero
// coordinates (all its deltas were below the global threshold).
func TestSparseChunkWithNoKeptCoords(t *testing.T) {
	base := make([]float32, 2*chunkLen)
	vec := append([]float32(nil), base...)
	vec[5] = 10 // the single important delta lives in chunk 0
	p := EncodeVec(vec, base, WireOpts{TopK: 1.0 / float64(len(vec))})
	back, err := DecodeVec(p, base)
	if err != nil {
		t.Fatal(err)
	}
	if back[5] < 9.9 || back[5] > 10.1 {
		t.Fatalf("kept coordinate decoded to %v", back[5])
	}
	for i, v := range back {
		if i != 5 && v != 0 {
			t.Fatalf("dropped coordinate %d decoded to %v", i, v)
		}
	}
}
