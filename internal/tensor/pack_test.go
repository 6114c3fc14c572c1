package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestPackLayout pins packB to the layout formula in pack.go's header
// comment, bit for bit: element (p, c) of packed B panel t is at
// t*nr*k + p*nr + c, and everything past n is +0. The destination starts out
// as NaN, so a slot the packer forgets to write fails the comparison. Sizes
// cross every panel boundary: partial panels alone and after full ones.
func TestPackLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, k := range []int{1, 7, 64} {
		for n := 1; n <= 17; n++ {
			src := make([]float32, n*k) // op(B) stored transposed: column j at src[j*k:]
			fillRand(rng, src)
			panels := (n + nr - 1) / nr
			dst := make([]float32, panels*nr*k)
			for i := range dst {
				dst[i] = float32(math.NaN())
			}
			packB(src, k, n, dst)
			for j := 0; j < panels*nr; j++ {
				for p := 0; p < k; p++ {
					var want float32
					if j < n {
						want = src[j*k+p]
					}
					got := dst[(j/nr)*nr*k+p*nr+j%nr]
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("packB: column %d of %d, p %d of %d = %v, want %v", j, n, p, k, got, want)
					}
				}
			}
		}
	}
}

// The pack benchmarks walk 1<<20 source elements as consecutive matrices of
// the shape a Dense layer hands over, each packed into the same panels: the
// source never repeats, the destination is cache-resident as it is in a step.

// BenchmarkPackBTransB: a Dense layer's forward packs its [out, in] weights
// through packB; 64×256 is full panels only.
func BenchmarkPackBTransB(b *testing.B) {
	const n, k = 64, 256
	benchPack(b, n*k, (n+nr-1)/nr*nr*k, func(src, dst []float32) { packB(src, k, n, dst) })
}

func benchPack(b *testing.B, srcLen, dstLen int, pack func(src, dst []float32)) {
	src := make([]float32, 1<<20)
	fillRand(rand.New(rand.NewSource(1)), src)
	dst := make([]float32, dstLen)
	b.SetBytes(4 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off+srcLen <= len(src); off += srcLen {
			pack(src[off:off+srcLen], dst)
		}
	}
}
