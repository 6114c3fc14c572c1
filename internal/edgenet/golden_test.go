package edgenet

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/tensor"
)

// goldenFrames are the hashes of the chunk frames, and of the reconstruction
// Exchange writes, for goldenInputs under every payload kind. They were taken
// from the protocol-3 codec, the last to offer a second code kind and other
// chunk sizes; its int8 frames at the default chunk size have not moved by a
// byte since.
var goldenFrames = map[string][2]string{
	"full":  {"d581f714100ef1ba", "b08661dca24a2415"},
	"delta": {"ae2ac11655d82011", "6e00eb0ec4ea8d62"},
	"top-k": {"1744f91c89ea59d7", "371abb39cbd3993a"},
}

// goldenInputs is a fixed-seed vector and reference of five chunks, the last
// ragged. Chunks 0 and 4 scatter ±0, subnormals and large finite values
// through random ones, with −0 following +0; chunk 1 scatters NaN and ±Inf
// through the vector and the reference, a NaN at its head; chunk 2 is a
// constant difference between constant values; chunk 3 is zeros alone, −0 at
// its head and sprinkled through +0. No finite chunk's range overflows
// float32, whose coding nn.Quantize8 changed on purpose.
func goldenInputs() (vec, base []float32) {
	negZero, nan, inf := float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1))
	finite := []float32{0, negZero, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, 3e5, -7e4}
	nonFinite := []float32{inf, -inf, nan}
	rng := tensor.NewRNG(2029)
	const n = 5*chunkLen - 120
	base = randVec(rng, n, 1)
	vec = make([]float32, n)
	for i := range vec {
		vec[i] = base[i] + float32(0.02*rng.NormFloat64())
	}
	for i := 3; i < n; i += 13 {
		specials := finite
		if i/chunkLen == 1 {
			specials = nonFinite
		}
		vec[i] = specials[rng.Intn(len(specials))]
		if i%3 == 0 {
			base[i] = specials[rng.Intn(len(specials))]
		}
	}
	vec[chunkLen] = nan
	vec[200], base[200] = negZero, 0
	vec[205], base[205] = 0, 0
	for i := 2 * chunkLen; i < 3*chunkLen; i++ {
		vec[i], base[i] = 0.25, 0.125
	}
	for i := 3 * chunkLen; i < 4*chunkLen; i++ {
		vec[i], base[i] = 0, 0
		if i%7 == 0 {
			vec[i] = negZero
		}
	}
	vec[3*chunkLen] = negZero
	return vec, base
}

// hashFrames feeds h the payload's header fields and its chunk frames as
// writeFrame puts them on a stream.
func hashFrames(h hash.Hash, p *WirePayload) {
	w := bufio.NewWriter(h)
	fmt.Fprintf(w, "%v %d %d %d|", p.Header.Delta, p.Header.Len, p.Header.Chunks, len(p.Chunks))
	for i := range p.Chunks {
		if err := writeFrame(w, &p.Chunks[i]); err != nil {
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
}

// TestChunkFramesGolden holds EncodeVec, a fresh Encoder's Exchange and a
// sender's reused Encoder to the golden frame and reconstruction hashes: full,
// delta and top-k payloads over five chunks.
func TestChunkFramesGolden(t *testing.T) {
	vec, base := goldenInputs()
	var reused Encoder
	paths := []string{"EncodeVec", "a fresh Encoder's Exchange", "a reused Encoder", "a reused Encoder's Exchange"}
	for _, kind := range []string{"full", "delta", "top-k"} {
		frames, recons := map[string]hash.Hash{}, map[string]hash.Hash{}
		for _, path := range paths {
			frames[path], recons[path] = sha256.New(), sha256.New()
		}
		var opts WireOpts
		b := base
		switch kind {
		case "full":
			b = nil
		case "top-k":
			opts.TopK = 0.25
		}
		recon := make([]float32, len(vec))
		hashFrames(frames[paths[0]], EncodeVec(vec, b, opts))
		hashFrames(frames[paths[1]], new(Encoder).Exchange(vec, b, opts, recon))
		hashVec(recons[paths[1]], recon)
		hashFrames(frames[paths[2]], reused.Exchange(vec, b, opts, nil))
		hashFrames(frames[paths[3]], reused.Exchange(vec, b, opts, recon))
		hashVec(recons[paths[3]], recon)
		want := goldenFrames[kind]
		for i, path := range paths {
			if got := fmt.Sprintf("%x", frames[path].Sum(nil)[:8]); got != want[0] {
				t.Errorf("%s: frames from %s hash to %s, golden %s", kind, path, got, want[0])
			}
			if got := fmt.Sprintf("%x", recons[path].Sum(nil)[:8]); i%2 == 1 && got != want[1] {
				t.Errorf("%s: the reconstruction from %s hashes to %s, golden %s", kind, path, got, want[1])
			}
		}
	}
}

func hashVec(h hash.Hash, v []float32) {
	for _, x := range v {
		_ = binary.Write(h, binary.LittleEndian, math.Float32bits(x))
	}
}
