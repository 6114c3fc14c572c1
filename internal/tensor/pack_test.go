package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestPackLayout pins packA and packB to the layout formula in pack.go's
// header comment, bit for bit: element (p, r) of a packed A tile is at
// p*mr + r, element (p, c) of packed B panel t at t*nr*k + p*nr + c, and
// everything past m or n is +0. packA packs the partial last tile, packB
// every panel of a transposed B and the partial last panel of a row-major
// one. The destination starts out as NaN, so a slot a path forgets to write
// fails the comparison. Sizes cross every tile boundary: partial tiles alone
// and after full ones.
func TestPackLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// check packs a lanes×k operand (k×lanes when stored the other way round)
	// into tile-wide panels from lane first on and compares every slot with
	// the formula.
	check := func(what string, lanes, k, tile, first int, laneMajor bool, pack func(src, dst []float32)) {
		t.Helper()
		src := make([]float32, lanes*k)
		fillRand(rng, src)
		tiles := (lanes + tile - 1) / tile
		dst := make([]float32, (tiles-first/tile)*tile*k)
		for i := range dst {
			dst[i] = float32(math.NaN())
		}
		pack(src, dst)
		for i := first; i < tiles*tile; i++ {
			for p := 0; p < k; p++ {
				var want float32
				switch {
				case i >= lanes:
				case laneMajor:
					want = src[i*k+p]
				default:
					want = src[p*lanes+i]
				}
				got := dst[((i-first)/tile)*tile*k+p*tile+i%tile]
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%s: lane %d of %d, p %d of %d = %v, want %v", what, i, lanes, p, k, got, want)
				}
			}
		}
	}
	for _, k := range []int{1, 7, 64} {
		for _, trans := range []bool{false, true} {
			for m := 1; m <= 17; m++ {
				if m%mr == 0 {
					continue
				}
				// op(A) rows are contiguous in a unless it is stored transposed.
				check(fmt.Sprintf("packA transA=%v", trans), m, k, mr, m-m%mr, !trans,
					func(src, dst []float32) { packA(src, m, k, trans, dst) })
			}
			for n := 1; n <= 17; n++ {
				first := 0
				if !trans {
					if n%nr == 0 {
						continue
					}
					first = n - n%nr
				}
				// op(B) columns are contiguous in b only when it is.
				check(fmt.Sprintf("packB transB=%v", trans), n, k, nr, first, trans,
					func(src, dst []float32) { packB(src, k, n, trans, dst) })
			}
		}
	}
}

// The pack benchmarks walk 1<<20 source elements as consecutive matrices of
// the shape a Dense layer hands over, each packed into the same panels: the
// source never repeats, the destination is cache-resident as it is in a step.

// BenchmarkPackBTransB: a Dense layer's forward packs its [out, in] weights
// through packB(transB=true); 64×256 is full panels only.
func BenchmarkPackBTransB(b *testing.B) {
	const n, k = 64, 256
	benchPack(b, n*k, (n+nr-1)/nr*nr*k, func(src, dst []float32) { packB(src, k, n, true, dst) })
}

// BenchmarkPackAPartial: a routed sub-batch shorter than a tile (4 rows of
// 512 inputs), row-major.
func BenchmarkPackAPartial(b *testing.B) {
	const m, k = 4, 512
	benchPack(b, m*k, mr*k, func(src, dst []float32) { packA(src, m, k, false, dst) })
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
