package edgenet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestMain runs the package with every array NaN-filled on its way back to
// the arena (tensor.PoisonReleasedForTests): the server folds pushed updates
// out of borrowed arrays, and one read after its loan ended would turn the
// cloud model NaN in whichever test covers the path.
func TestMain(m *testing.M) {
	tensor.PoisonReleasedForTests(true)
	os.Exit(m.Run())
}

func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// overFrames sends p's chunks through a codec as flat frames and returns what
// the far end's RecvPayload assembles, with the bytes that crossed.
func overFrames(t testing.TB, p *WirePayload) (*WirePayload, []byte) {
	t.Helper()
	var stream bytes.Buffer
	codec := NewCodec(&stream)
	for i := range p.Chunks {
		if err := codec.Send(&p.Chunks[i]); err != nil {
			t.Fatal(err)
		}
	}
	raw := bytes.Clone(stream.Bytes())
	got, err := codec.RecvPayload(&p.Header, p.Header.Len)
	if err != nil {
		t.Fatal(err)
	}
	return got, raw
}

// codecTable is the differential tests' input space: every payload kind, and
// lengths from none to several chunks, exact multiples of a chunk and ones
// that leave a ragged last chunk.
func codecTable(visit func(name string, vec, base []float32, opts WireOpts)) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, math.MaxFloat32, -math.MaxFloat32,
	}
	rng := tensor.NewRNG(91)
	for _, n := range []int{0, 1, 15, 16, 17, 100, 1023, 1024, 1025, 2500, 3 * chunkLen} {
		for _, special := range []bool{false, true} {
			base := randVec(rng, n, 1)
			vec := make([]float32, n)
			for i := range vec {
				vec[i] = base[i] + float32(0.02*rng.NormFloat64())
			}
			if special {
				// Non-finite and subnormal values scattered through both
				// vectors, and a stretch wide enough to make a whole chunk
				// constant — in the values and, where base follows, the delta.
				for i := 0; i < n; i += 7 {
					vec[i] = specials[rng.Intn(len(specials))]
					if i%3 == 0 {
						base[i] = specials[rng.Intn(len(specials))]
					}
				}
				for i := n / 3; i < min(n, n/3+chunkLen+300); i++ {
					vec[i], base[i] = 0.25, 0.125
				}
			}
			for _, k := range []struct {
				name  string
				delta bool
				topK  float64
			}{{"full", false, 0}, {"delta", true, 0}, {"top-k 0.25", true, 0.25}, {"top-k 0.9", true, 0.9}} {
				b := base
				if !k.delta {
					b = nil
				}
				visit(fmt.Sprintf("%s n=%d special=%v", k.name, n, special), vec, b, WireOpts{TopK: k.topK})
			}
		}
	}
}

// TestExchangeMatchesEncodeThenDecode pins the bits of the fused sender walk
// to the two-step path it replaced, which stays as the receiver: the payload
// Exchange builds is EncodeVec's, field for field, and the reconstruction it
// writes while quantizing is what DecodeVec makes of that payload — beside the
// reference or on top of it — before and after the payload crosses a stream
// as flat frames. A sender's Encoder, reused across the whole table as a
// connection reuses it, builds that payload too.
func TestExchangeMatchesEncodeThenDecode(t *testing.T) {
	var reused Encoder
	codecTable(func(name string, vec, base []float32, opts WireOpts) {
		want := EncodeVec(vec, base, opts)
		wantVec, err := DecodeVec(want, base)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gotVec := make([]float32, len(vec))
		got := new(Encoder).Exchange(vec, base, opts, gotVec)
		if !slices.Equal(payloadBits(got), payloadBits(want)) || got.WireBytes() != want.WireBytes() {
			t.Fatalf("%s: Exchange built another payload than EncodeVec", name)
		}
		if !sameBits(gotVec, wantVec) {
			t.Fatalf("%s: Exchange reconstructed other bits than DecodeVec", name)
		}
		if !slices.Equal(payloadBits(reused.Exchange(vec, base, opts, nil)), payloadBits(want)) {
			t.Fatalf("%s: a reused encoder built another payload than EncodeVec", name)
		}

		far, raw := overFrames(t, want)
		if !slices.Equal(payloadBits(far), payloadBits(want)) {
			t.Fatalf("%s: payload changed crossing the stream", name)
		}
		// A frame is its chunk's priced bytes behind a 4 B length.
		if framed := want.WireBytes() - 16 + 4*int64(len(want.Chunks)); int64(len(raw)) != framed {
			t.Fatalf("%s: %d B on the stream, WireBytes prices %d B of frames", name, len(raw), framed)
		}
		if err := far.check(base); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// In place: onto the reference's own array, as the client lands a
		// delta fetch.
		onto := slices.Clone(base)
		if !want.Header.Delta {
			onto = make([]float32, len(vec))
		}
		far.decodeInto(onto, onto)
		if !sameBits(onto, wantVec) {
			t.Fatalf("%s: decoding a received payload in place gives other bits than DecodeVec beside the reference", name)
		}
	})
}

// TestTopKOffsetsFitTheirWidth is the regression test for offsets wrapping: a
// sparse offset is a uint16, and a 70,000-element chunk used to store its
// one kept coordinate, 69,999, as 4,463 — decoded there without an error on
// either end. The codec cuts chunks of chunkLen elements, and a receiver
// refuses a sparse chunk its offsets could not address.
func TestTopKOffsetsFitTheirWidth(t *testing.T) {
	const n = 70000
	base, vec := make([]float32, n), make([]float32, n)
	vec[n-1] = 10
	p := EncodeVec(vec, base, WireOpts{TopK: 1.0 / n})
	for i := range p.Chunks {
		if p.Chunks[i].N > chunkLen {
			t.Fatalf("chunk %d holds %d elements, the codec cuts %d", i, p.Chunks[i].N, chunkLen)
		}
	}
	got, err := DecodeVec(p, base)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if want := vec[i]; math.Abs(float64(v-want)) > 0.05 {
			t.Fatalf("coordinate %d decoded to %v, sent %v", i, v, want)
		}
	}

	// What a peer that cut all 70,000 elements as one chunk would send: the
	// kept coordinate's offset wrapped.
	wide := &WirePayload{
		Header: WireHeader{Delta: true, Len: n, Chunks: 1},
		Chunks: []WireChunk{{N: n, Sparse: true, Q8: nn.Quantize8([]float32{10}), Idx: []uint16{(n - 1) % maxChunk}}},
	}
	if _, err := DecodeVec(wide, base); err == nil {
		t.Fatal("a sparse chunk of 70,000 elements decoded")
	}
}

// chunkFrames returns each chunk of p as the bytes of its frame.
func chunkFrames(t testing.TB, p *WirePayload) [][]byte {
	t.Helper()
	var frames [][]byte
	for i := range p.Chunks {
		var buf bytes.Buffer
		if err := NewCodec(&buf).Send(&p.Chunks[i]); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
	}
	return frames
}

// frameHead is the first 8 bytes of a chunk frame: its size and the word of
// flags and element count.
func frameHead(size, flags uint32, n int) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, size), flags|uint32(n)<<8)
}

// refusedOnHead reports whether a frame's first 8 bytes alone condemn it for
// a receiver still owed remaining elements: a size below the headers or above
// the most such a chunk can occupy (a sparse chunk that kept everything),
// a flag this protocol does not define, or more elements than are owed.
func refusedOnHead(head []byte, remaining int) bool {
	size, word := binary.LittleEndian.Uint32(head), binary.LittleEndian.Uint32(head[4:])
	return size < 12 || uint64(size) > 12+3*uint64(remaining) || word&0xff&^frameSparse != 0 || int(word>>8) > remaining
}

// FuzzChunkFrame: whatever bytes arrive where a chunk frame is due, the frame
// reader returns — never panics, never takes from the stream or holds more
// than a chunk of the elements still owed can occupy, takes nothing of a frame
// its first 8 bytes condemn — and a frame it accepts is one the frame writer
// writes back byte for byte.
func FuzzChunkFrame(f *testing.F) {
	rng := tensor.NewRNG(92)
	const n = 3*chunkLen + 100
	vec, base := randVec(rng, n, 1), randVec(rng, n, 1)
	vec[3], base[3] = 40, -40 // the one coordinate top-k surely keeps: chunk 0's
	for _, p := range []*WirePayload{
		EncodeVec(vec, nil, WireOpts{}),
		EncodeVec(vec, base, WireOpts{}),
		EncodeVec(vec, base, WireOpts{TopK: 0.01}),
		EncodeVec(vec, base, WireOpts{TopK: 0.5}),
	} {
		for _, frame := range chunkFrames(f, p) {
			f.Add(frame, uint32(n))
			f.Add(frame[:len(frame)-1], uint32(n))
			for _, at := range []int{0, 5} { // the size, the element count
				for _, d := range []byte{1, 255} {
					off := bytes.Clone(frame)
					off[at] += d
					f.Add(off, uint32(n))
				}
			}
		}
	}
	// A version-3 frame of 2-byte codes (flag bit 1, no quantization header),
	// and a sparse frame one byte over the bound.
	f.Add(append(frameHead(4+2*100, 1<<1, 100), make([]byte, 2*100)...), uint32(100))
	f.Add(append(frameHead(12+3*100+1, frameSparse, 100), make([]byte, 8+3*100+1)...), uint32(100))
	f.Fuzz(func(t *testing.T, raw []byte, owed uint32) {
		remaining := int(owed % (1 << 20))
		stream := bytes.NewReader(raw)
		r := bufio.NewReaderSize(stream, 16)
		var ch WireChunk
		_, err := readFrame(r, &ch, nil, remaining)
		taken := len(raw) - stream.Len() - r.Buffered()
		if err != nil {
			if len(raw) >= 8 && refusedOnHead(raw, remaining) && taken != 0 {
				t.Fatalf("frame reader took %d B of a frame its first 8 bytes condemn, %d elements owed", taken, remaining)
			}
			return
		}
		size := 4 + int(binary.LittleEndian.Uint32(raw))
		if taken != size || size > 16+3*remaining || ch.N > remaining {
			t.Fatalf("frame reader took %d B for a frame of %d B rebuilding %d of %d elements owed", taken, size, ch.N, remaining)
		}
		if held := cap(ch.Q8.Codes) + 2*len(ch.Idx); held > size {
			t.Fatalf("chunk holds %d B of codes from a %d B frame", held, size)
		}
		var back bytes.Buffer
		if err := NewCodec(&back).Send(&ch); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Bytes(), raw[:size]) {
			t.Fatalf("frame % x\nparsed to %+v\nand written back as % x", raw[:size], ch, back.Bytes())
		}
	})
}
