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
// Exchange writes, for goldenInputs under every payload kind and code kind.
// They were taken from the encoder that allocated every chunk's codes and
// found each chunk's range in a pass of its own; the wire has not moved by a
// byte since.
var goldenFrames = map[string][2]string{
	"full int8":  {"ff2fe021cc989505", "dc184f2f13229bd2"},
	"full f16":   {"e0c38d02b038154e", "564c5a940561d551"},
	"delta int8": {"c964639e17c98096", "8c281cd051bd07e0"},
	"delta f16":  {"6b35f98d5d7eaba1", "686721d8cd4e691d"},
	"top-k int8": {"1a33a3755db0ecff", "904cf14a24ae2a4f"},
	"top-k f16":  {"ab81d7a5ae9f2d66", "9b1ff7b3d9cfab8f"},
}

// goldenInputs is a fixed-seed vector and reference with NaN, ±Inf, ±0 and
// subnormals scattered through them, a NaN at the head of a chunk, a stretch
// whose difference is constant and one of zeros alone, −0 heading some of its
// chunks and following +0 in others. No chunk's range overflows float32,
// whose coding nn.Quantize8 changed on purpose.
func goldenInputs() (vec, base []float32) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, 3e5, -7e4,
	}
	rng := tensor.NewRNG(2029)
	const n = 2500
	base = randVec(rng, n, 1)
	vec = make([]float32, n)
	for i := range vec {
		vec[i] = base[i] + float32(0.02*rng.NormFloat64())
	}
	for i := 3; i < n; i += 13 {
		vec[i] = specials[rng.Intn(len(specials))]
		if i%3 == 0 {
			base[i] = specials[rng.Intn(len(specials))]
		}
	}
	vec[100], vec[1024] = float32(math.NaN()), float32(math.NaN())
	vec[200], base[200] = float32(math.Copysign(0, -1)), 0
	vec[205], base[205] = 0, 0
	for i := 1500; i < 1800; i++ {
		vec[i], base[i] = 0.25, 0.125
	}
	for i := 1800; i < 1900; i++ {
		vec[i], base[i] = 0, 0
		if i%7 == 0 {
			vec[i] = float32(math.Copysign(0, -1))
		}
	}
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

// TestChunkFramesGolden holds EncodeVec, Exchange and a sender's reused
// encoder to the golden frame and reconstruction hashes: full, delta and
// top-k payloads, int8 and float16 codes, at the default chunk size and two
// that leave a ragged tail.
func TestChunkFramesGolden(t *testing.T) {
	vec, base := goldenInputs()
	var reused encoder
	paths := []string{"EncodeVec", "Exchange", "a reused encoder", "a reused encoder's Exchange"}
	for _, kind := range []string{"full", "delta", "top-k"} {
		for _, f16 := range []bool{false, true} {
			name := kind + " int8"
			if f16 {
				name = kind + " f16"
			}
			frames, recons := map[string]hash.Hash{}, map[string]hash.Hash{}
			for _, path := range paths {
				frames[path], recons[path] = sha256.New(), sha256.New()
			}
			for _, chunk := range []int{1024, 100, 7} {
				opts := WireOpts{Chunk: chunk, F16: f16}
				b := base
				switch kind {
				case "full":
					b = nil
				case "top-k":
					opts.TopK = 0.25
				}
				recon := make([]float32, len(vec))
				hashFrames(frames[paths[0]], EncodeVec(vec, b, opts))
				hashFrames(frames[paths[1]], Exchange(vec, b, opts, recon))
				hashVec(recons[paths[1]], recon)
				hashFrames(frames[paths[2]], reused.encode(vec, b, opts, nil))
				hashFrames(frames[paths[3]], reused.encode(vec, b, opts, recon))
				hashVec(recons[paths[3]], recon)
			}
			want := goldenFrames[name]
			for i, path := range paths {
				if got := fmt.Sprintf("%x", frames[path].Sum(nil)[:8]); got != want[0] {
					t.Errorf("%s: frames from %s hash to %s, golden %s", name, path, got, want[0])
				}
				if got := fmt.Sprintf("%x", recons[path].Sum(nil)[:8]); i%2 == 1 && got != want[1] {
					t.Errorf("%s: the reconstruction from %s hashes to %s, golden %s", name, path, got, want[1])
				}
			}
		}
	}
}

func hashVec(h hash.Hash, v []float32) {
	for _, x := range v {
		_ = binary.Write(h, binary.LittleEndian, math.Float32bits(x))
	}
}
