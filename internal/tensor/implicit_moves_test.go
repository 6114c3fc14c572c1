package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// fillSpecial fills s with values that expose any reordering of a move or an
// add: NaNs of random payload, sign and quietness (two of them meet in many
// adds), ±0, ±Inf, subnormals and ordinary numbers.
func fillSpecial(rng *rand.Rand, s []float32) {
	for i := range s {
		sign := uint32(rng.Intn(2)) << 31
		switch rng.Intn(8) {
		case 0: // NaN: all-ones exponent, nonzero mantissa (quiet or not)
			s[i] = math.Float32frombits(sign | 0x7f800000 | (1 + uint32(rng.Intn(1<<23-1))))
		case 1:
			s[i] = math.Float32frombits(sign)
		case 2:
			s[i] = math.Float32frombits(sign | 0x7f800000)
		case 3: // subnormal
			s[i] = math.Float32frombits(sign | (1 + uint32(rng.Intn(1<<23-1))))
		default:
			s[i] = rng.Float32()*2 - 1
		}
	}
}

// firstBitDiff reports the first index where a and b differ in their bits —
// or, with nanAny, where they differ and are not both NaN.
func firstBitDiff(a, b []float32, nanAny bool) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(nanAny && a[i] != a[i] && b[i] != b[i]) {
			return i, false
		}
	}
	return 0, true
}

// movesCase runs padImage, unpadImage, packBConv, packBConvT and foldCols on
// geometry g once with the AVX twins and once with the portable paths, from
// the same operands, and requires the same bits in every output element. The
// one exception is the payload of a NaN the fold's adds produce from two
// NaNs: x86 keeps the first source's, and which operand is first in the Go
// loop is the compiler's choice — it differs between the plain and the race
// build of the same source — so there both sides must give a NaN, as the
// repo's other bitwise gates ask (sameBits). The moves carry every payload.
// Every operand and output starts random, the padded image's border
// included, so a twin that read the wrong element or left one unwritten could
// not hide behind a zero; each is exactly as long as the geometry needs, so a
// twin that reached past it would fail its reach check.
func movesCase(t *testing.T, rng *rand.Rand, g ConvGeom) {
	t.Helper()
	kdim, cols := g.Kdim(), g.Cols()
	src := make([]float32, g.Channels*g.Height*g.Width)
	img := make([]float32, g.Channels*(g.Height+2*g.Pad)*(g.Width+2*g.Pad))
	dcol := make([]float32, kdim*cols)
	fillSpecial(rng, src)
	fillSpecial(rng, img)
	fillSpecial(rng, dcol)
	junk := make([]float32, max(len(img), (cols+nr-1)/nr*nr*kdim, (kdim+nr-1)/nr*nr*cols))
	fillSpecial(rng, junk)

	run := func(avx bool) (outs [5][]float32) {
		strictAVX = avx
		for i, n := range []int{len(img), len(src), (cols + nr - 1) / nr * nr * kdim, (kdim + nr - 1) / nr * nr * cols} {
			outs[i] = append([]float32(nil), junk[:n]...)
		}
		if g.Pad > 0 {
			padImage(src, g, outs[0])
			unpadImage(img, g, outs[1])
		}
		packBConv(img, g, outs[2])
		packBConvT(img, g, convTaps(g, nil), outs[3])
		outs[4] = append([]float32(nil), img...)
		foldCols(dcol, g, outs[4])
		return
	}
	avx := run(true)
	std := run(false)
	strictAVX = true
	for o, name := range []string{"padImage", "unpadImage", "packBConv", "packBConvT", "foldCols"} {
		if i, ok := firstBitDiff(avx[o], std[o], name == "foldCols"); !ok {
			t.Fatalf("%s %+v: [%d] avx=%#08x portable=%#08x", name, g, i,
				math.Float32bits(avx[o][i]), math.Float32bits(std[o][i]))
		}
	}
}

// convMoveGeoms is every geometry of the census (convBenchGeoms), of
// convExperimentCases, and n random ones with rectangular images, kernels of
// 1..5 taps, stride 1..3 and pad 0..3, weighted towards the output widths
// the twins take (multiples of 4).
func convMoveGeoms(rng *rand.Rand, n int) []ConvGeom {
	var gs []ConvGeom
	for _, bc := range convBenchGeoms {
		gs = append(gs, bc.g)
	}
	for _, c := range convExperimentCases {
		gs = append(gs, c.geom())
	}
	for len(gs) < len(convBenchGeoms)+len(convExperimentCases)+n {
		g := ConvGeom{
			Channels: 1 + rng.Intn(9),
			Height:   1 + rng.Intn(14),
			Width:    1 + rng.Intn(18),
			KH:       1 + rng.Intn(5),
			KW:       1 + rng.Intn(5),
			Stride:   1 + rng.Intn(3),
			Pad:      rng.Intn(4),
		}
		if rng.Intn(2) == 0 {
			// Stretch the width to the nearest output width of whole groups.
			g.Width += (4 - g.Width%4) % 4
		}
		if g.fits() {
			gs = append(gs, g)
		}
	}
	return gs
}

// TestConvMovesMatchPortable pins every AVX twin of the conv data movement
// against its portable path bit for bit (movesCase).
func TestConvMovesMatchPortable(t *testing.T) {
	if !strictAVX {
		t.Skipf("kernel mode %s: no AVX twins on this host", KernelMode())
	}
	defer func() { strictAVX = true }()
	rng := rand.New(rand.NewSource(23))
	n := 400
	if testing.Short() {
		n = 60
	}
	for _, g := range convMoveGeoms(rng, n) {
		movesCase(t, rng, g)
	}

	// Two NaNs of different payload meeting in every add of the fold, on
	// each side of the −0 filler: a NaN everywhere, on both paths.
	g := ConvGeom{Channels: 2, Height: 8, Width: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	for _, s := range []int{1, 2} {
		g.Stride = s
		img := make([]float32, g.paddedLen())
		dcol := make([]float32, g.Kdim()*g.Cols())
		for i := range img {
			img[i] = math.Float32frombits(0x7fc00000 | uint32(i+1))
		}
		for i := range dcol {
			dcol[i] = math.Float32frombits(0xffc00000 | uint32(i+1)<<8)
		}
		strictAVX = true
		avx := append([]float32(nil), img...)
		foldCols(dcol, g, avx)
		strictAVX = false
		std := append([]float32(nil), img...)
		foldCols(dcol, g, std)
		strictAVX = true
		if i, ok := firstBitDiff(avx, std, true); !ok {
			t.Fatalf("foldCols stride %d, NaN onto NaN: [%d] avx=%#08x portable=%#08x", s, i,
				math.Float32bits(avx[i]), math.Float32bits(std[i]))
		}
	}
}

// TestConvMovesTwinReach pins the check each twin's wrapper makes before the
// assembly runs: an image one element short of the twin's highest read
// panics with the geometry, not with a read past the slice. Both geometries
// have whole panels only (kdim = 72) and a last tap that reads the padded
// image's last element; the copies' twins take the first (Width % 4 == 0).
func TestConvMovesTwinReach(t *testing.T) {
	if !strictAVX {
		t.Skipf("kernel mode %s: no AVX twins on this host", KernelMode())
	}
	for _, g := range []ConvGeom{
		{Channels: 8, Height: 8, Width: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Channels: 8, Height: 7, Width: 7, KH: 3, KW: 3, Stride: 2, Pad: 1},
	} {
		kdim, cols := g.Kdim(), g.Cols()
		short := make([]float32, g.paddedLen()-1)
		shortSrc := make([]float32, g.Channels*g.Height*g.Width-1)
		for _, fn := range []struct {
			name string
			run  func()
		}{
			{"padImage", func() { padRows(shortSrc, g, make([]float32, g.paddedLen())) }},
			{"unpadImage", func() { unpadImage(short, g, make([]float32, g.Channels*g.Height*g.Width)) }},
			{"packBConv", func() { packBConv(short, g, make([]float32, (cols+nr-1)/nr*nr*kdim)) }},
			{"packBConvT", func() { packBConvT(short, g, convTaps(g, nil), make([]float32, (kdim+nr-1)/nr*nr*cols)) }},
			{"foldCols", func() { foldCols(make([]float32, kdim*cols), g, short) }},
		} {
			if g.Width%4 != 0 && strings.Contains(fn.name, "pad") {
				continue
			}
			t.Run(fmt.Sprintf("%s_s%d", fn.name, g.Stride), func(t *testing.T) {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "tensor: "+fn.name+" AVX twin") {
						t.Errorf("got panic %q, want the twin's reach check", msg)
					}
				}()
				fn.run()
			})
		}
	}
}
