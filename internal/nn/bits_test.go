package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The loops around the GEMM kernel — ReLU's select and SGD's update — are
// single-pass and branch-free; the loops they replaced live on here as
// oracles, and every comparison is on math.Float32bits.

// reluForwardOracle and reluBackwardOracle are ReLU.Forward/Backward's loops
// as they were while they branched per element.
func reluForwardOracle(x, y []float32) {
	for i, v := range x {
		if v <= 0 {
			y[i] = 0
		} else {
			y[i] = v
		}
	}
}

func reluBackwardOracle(grad, y, dx []float32) {
	for i, g := range grad {
		if y[i] <= 0 {
			dx[i] = 0
		} else {
			dx[i] = g
		}
	}
}

// specialBits: NaNs of both signs, quiet and signalling, with payloads; both
// zeros and infinities; the smallest and largest subnormals and the normals
// next to them; ±1 and the largest finite values.
var specialBits = []uint32{
	0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fc12345, 0xffc54321, 0x7fffffff, 0xffffffff,
	0x00000000, 0x80000000, 0x7f800000, 0xff800000,
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff, 0x00800000, 0x80800000,
	0x3f800000, 0xbf800000, 0x7f7fffff, 0xff7fffff,
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s[%d] = %#08x, oracle %#08x", what, i, g, w)
		}
	}
}

func TestReLUBitsMatchBranchingLoop(t *testing.T) {
	// Every special as an input, every (output, gradient) pair of specials
	// through the backward select, then 1<<16 uniformly random bit patterns
	// (one in 256 of which is a NaN or an infinity) for each.
	var xs, gs []float32
	for _, a := range specialBits {
		for _, b := range specialBits {
			xs = append(xs, math.Float32frombits(a))
			gs = append(gs, math.Float32frombits(b))
		}
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 1<<16; i++ {
		xs = append(xs, math.Float32frombits(rng.Uint32()))
		gs = append(gs, math.Float32frombits(rng.Uint32()))
	}
	x, g := tensor.FromSlice(xs, len(xs)), tensor.FromSlice(gs, len(gs))
	wantY, wantDx := make([]float32, len(xs)), make([]float32, len(xs))
	reluForwardOracle(xs, wantY)
	reluBackwardOracle(gs, wantY, wantDx)

	r := NewReLU()
	sameBits(t, "ReLU.Forward", r.Forward(x, true).Data, wantY)
	sameBits(t, "ReLU.Backward", r.Backward(g).Data, wantDx)
}

// sgdStepOracle is SGD.Step as the five whole-tensor passes it used to be.
func sgdStepOracle(lr, momentum, weightDecay float32, velocity map[*Param]*tensor.Tensor, params []*Param) {
	for _, p := range params {
		g := p.G
		if weightDecay != 0 {
			g.AddScaled(weightDecay, p.W)
		}
		if momentum != 0 {
			v := velocity[p]
			if v == nil {
				v = tensor.New(p.W.Shape()...)
				velocity[p] = v
			}
			v.Scale(momentum)
			v.Add(g)
			p.W.AddScaled(-lr, v)
		} else {
			p.W.AddScaled(-lr, g)
		}
		p.ZeroGrad()
	}
}

func TestSGDStepBitsMatchFivePassSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, wd := range []float32{0, 1e-4} {
		for _, mom := range []float32{0, 0.9} {
			var got, want []*Param
			for _, shape := range [][]int{{1}, {7}, {rng.Intn(40) + 1, rng.Intn(40) + 1}, {3, 5, 3, 3}, {1031}} {
				p, q := NewParam("got", shape...), NewParam("want", shape...)
				for i := range p.W.Data {
					p.W.Data[i] = float32(rng.NormFloat64())
				}
				copy(q.W.Data, p.W.Data)
				got, want = append(got, p), append(want, q)
			}
			opt := NewSGD(0.05, mom, wd)
			velocity := map[*Param]*tensor.Tensor{}
			for step := 0; step < 10; step++ {
				for i, p := range got {
					for j := range p.G.Data {
						p.G.Data[j] = float32(rng.NormFloat64())
					}
					copy(want[i].G.Data, p.G.Data)
				}
				opt.Step(got)
				sgdStepOracle(0.05, mom, wd, velocity, want)
				for i, p := range got {
					what := fmt.Sprintf("wd=%v momentum=%v step %d param %d", wd, mom, step, i)
					sameBits(t, what+" W", p.W.Data, want[i].W.Data)
					sameBits(t, what+" G", p.G.Data, want[i].G.Data)
					if mom != 0 {
						sameBits(t, what+" velocity", opt.velocity[p].Data, velocity[want[i]].Data)
					} else if len(opt.velocity) != 0 {
						t.Fatalf("%s: momentum 0 borrowed a velocity buffer", what)
					}
				}
			}
			opt.Release()
		}
	}
}

// benchElems is what one iteration of the benchmarks below walks: 1<<20
// elements that never repeat. The size is the point. The branching ReLU
// measured 1.2 ns/element on a 4,096-element input run over and over,
// because the branch predictor learns a pattern that short, and 5 ns/element
// on this one — a training step never shows the predictor the same
// activations twice, which is how a loop costing 15 % of a round's CPU looked
// free in every earlier micro-benchmark.
const benchElems = 1 << 20

func benchNormal(seed int64) *tensor.Tensor {
	t := tensor.New(benchElems)
	tensor.NewRNG(seed).FillNormal(t, 0, 1)
	return t
}

func BenchmarkReLUForward(b *testing.B) {
	r, x := NewReLU(), benchNormal(1)
	b.SetBytes(4 * benchElems)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Forward(x, true)
	}
}

func BenchmarkReLUBackward(b *testing.B) {
	r, x, g := NewReLU(), benchNormal(1), benchNormal(2)
	r.Forward(x, true)
	b.SetBytes(4 * benchElems)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Backward(g)
	}
}

// BenchmarkSGDStep uses fed.TrainLayer's optimizer (momentum 0.9, weight
// decay 1e-4). Step leaves the gradient zero, which costs what any other
// value costs: no loop in it looks at the data.
func BenchmarkSGDStep(b *testing.B) {
	p := &Param{Name: "w", W: benchNormal(1), G: benchNormal(2)}
	opt := NewSGD(0.01, 0.9, 1e-4)
	params := []*Param{p}
	opt.Step(params) // borrow the velocity buffer
	b.SetBytes(4 * benchElems)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(params)
	}
}
