package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// SGD is stochastic gradient descent with optional momentum and weight decay.
type SGD struct {
	LR          float32
	Momentum    float32
	WeightDecay float32
	velocity    map[*Param]*tensor.Tensor
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float32) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay, velocity: map[*Param]*tensor.Tensor{}}
}

// Step applies one update and zeroes gradients, in one pass per parameter:
// g += wd·w, v = momentum·v + g, w -= lr·v, each product rounded to float32
// before it is added. The explicit conversions are what forbid a fused
// multiply-add on platforms that have one (arm64), so the weights carry the
// same bits everywhere.
func (s *SGD) Step(params []*Param) {
	lr, mom, wd := -s.LR, s.Momentum, s.WeightDecay
	decay := wd != 0
	for _, p := range params {
		g := p.G.Data
		if len(g) != p.W.Len() {
			panic(fmt.Sprintf("nn: SGD.Step gradient of %d elements for %d weights", len(g), p.W.Len()))
		}
		w := p.W.Data[:len(g)]
		if mom == 0 {
			for i, gi := range g {
				if decay {
					gi += float32(wd * w[i])
				}
				w[i] += float32(lr * gi)
			}
		} else {
			v := s.velocity[p]
			if v == nil {
				v = zeroLike(p.W)
				s.velocity[p] = v
			}
			vel := v.Data[:len(g)]
			for i, gi := range g {
				if decay {
					gi += float32(wd * w[i])
				}
				vi := float32(vel[i]*mom) + gi
				vel[i] = vi
				w[i] += float32(lr * vi)
			}
		}
		clear(g)
	}
}

// Release ends the optimizer's bout: its momentum buffers go back to the
// arena they were borrowed from. A later Step starts from zero velocity.
func (s *SGD) Release() {
	for _, v := range s.velocity {
		tensor.Release(v)
	}
	clear(s.velocity)
}

// Adam is the Adam optimizer with bias correction.
type Adam struct {
	LR   float32
	t    int
	m, v map[*Param]*tensor.Tensor
}

// Adam's standard moment coefficients and denominator epsilon.
const (
	adamBeta1 float32 = 0.9
	adamBeta2 float32 = 0.999
	adamEps   float32 = 1e-8
)

// NewAdam returns an Adam optimizer.
func NewAdam(lr float32) *Adam {
	return &Adam{LR: lr, m: map[*Param]*tensor.Tensor{}, v: map[*Param]*tensor.Tensor{}}
}

// Step applies one Adam update and zeroes gradients. Each moment product is
// rounded to float32 before it is added, as in SGD.Step, so no platform fuses
// it.
func (a *Adam) Step(params []*Param) {
	a.t++
	bc1 := 1 - float32(math.Pow(float64(adamBeta1), float64(a.t)))
	bc2 := 1 - float32(math.Pow(float64(adamBeta2), float64(a.t)))
	for _, p := range params {
		g := p.G
		m := a.m[p]
		v := a.v[p]
		if m == nil {
			m, v = zeroLike(p.W), zeroLike(p.W)
			a.m[p] = m
			a.v[p] = v
		}
		for i, gv := range g.Data {
			m.Data[i] = float32(adamBeta1*m.Data[i]) + float32((1-adamBeta1)*gv)
			v.Data[i] = float32(adamBeta2*v.Data[i]) + float32(float32((1-adamBeta2)*gv)*gv)
			mhat := m.Data[i] / bc1
			vhat := v.Data[i] / bc2
			p.W.Data[i] -= a.LR * mhat / (float32(math.Sqrt(float64(vhat))) + adamEps)
		}
		p.ZeroGrad()
	}
}

// Release ends the optimizer's bout as SGD.Release does: the moment buffers
// go back to the arena they were borrowed from.
func (a *Adam) Release() {
	for p, m := range a.m {
		tensor.Release(m)
		tensor.Release(a.v[p])
	}
	clear(a.m)
	clear(a.v)
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm. Returns the pre-clip norm.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	var total float64
	for _, p := range params {
		n := p.G.Norm()
		total += float64(n * n)
	}
	total = math.Sqrt(total)
	if total > maxNorm && total > 0 {
		scale := float32(maxNorm / total)
		for _, p := range params {
			p.G.Scale(scale)
		}
	}
	return total
}
