package data

import (
	"math"

	"repro/internal/tensor"
)

// Env captures the "application context" of an edge device: the outer
// environment the paper's motivation section describes (lighting, angle,
// usage pattern, subject). Generators mix the environment into every sample,
// so changing the Env shifts the device's feature distribution without
// changing its label semantics.
type Env struct {
	// Subject selects a per-subject affine transform (feature skew, HAR).
	Subject int
	// Brightness and Contrast model appearance changes (vision tasks).
	Brightness float32
	Contrast   float32
	// Noise scales per-sample Gaussian noise (sensor quality, SNR).
	Noise float32
}

// DefaultEnv is the neutral environment used for cloud proxy data. Noise is
// set so tasks are learnable but not saturated: adaptation strategies need
// headroom to differ, as they do on the paper's real datasets.
func DefaultEnv() Env {
	return Env{Subject: 0, Brightness: 0, Contrast: 1, Noise: 0.9}
}

// RandomEnv samples a plausible edge environment.
func RandomEnv(rng *tensor.RNG) Env {
	return Env{
		Subject:    rng.Intn(30),
		Brightness: float32(rng.NormFloat64() * 0.2),
		Contrast:   1 + float32(rng.NormFloat64()*0.15),
		Noise:      0.7 + float32(rng.Float64()*0.6),
	}
}

// Generator produces class-conditional samples under an environment. All
// generators are deterministic given the RNG stream, making every experiment
// reproducible from one seed.
type Generator interface {
	// Sample draws one sample of the given class.
	Sample(rng *tensor.RNG, class int, env Env) []float32
	SampleShape() []int
	NumClasses() int
	Name() string
}

// prototypes holds per-class, per-view mean vectors plus per-subject
// transforms shared by the concrete generators. Every class is a mixture of
// `views` sub-prototypes (poses, lighting conditions, speaker styles): a
// device's small local sample covers the views sparsely, so purely local
// learning generalizes worse than models that pool knowledge across devices
// — the statistical property behind the paper's Figure 1(a).
type prototypes struct {
	name     string
	shape    []int
	classes  int
	views    int
	protos   [][]float32 // [class*views][sampleLen]
	subjectA []float32   // per-subject feature scales  [subjects*sampleLen]
	subjectB []float32   // per-subject feature offsets [subjects*sampleLen]
	subjects int
}

func newPrototypes(seed int64, name string, shape []int, classes, subjects int, protoScale float32) *prototypes {
	rng := tensor.NewRNG(seed)
	n := 1
	for _, s := range shape {
		n *= s
	}
	const views = 3
	p := &prototypes{name: name, shape: shape, classes: classes, subjects: subjects, views: views}
	p.protos = make([][]float32, classes*views)
	for c := 0; c < classes; c++ {
		// Class core plus view deltas of comparable magnitude: views are as
		// far apart as classes, so covering them needs breadth of data.
		core := make([]float32, n)
		for i := range core {
			core[i] = protoScale * float32(rng.NormFloat64())
		}
		for v := 0; v < views; v++ {
			pv := make([]float32, n)
			for i := range pv {
				pv[i] = core[i] + float32(0.8*protoScale*float32(rng.NormFloat64()))
			}
			p.protos[c*views+v] = pv
		}
	}
	p.subjectA = make([]float32, subjects*n)
	p.subjectB = make([]float32, subjects*n)
	for i := range p.subjectA {
		p.subjectA[i] = 1 + float32(0.25*float32(rng.NormFloat64()))
		p.subjectB[i] = 0.3 * float32(rng.NormFloat64())
	}
	return p
}

func (p *prototypes) SampleShape() []int { return p.shape }
func (p *prototypes) NumClasses() int    { return p.classes }
func (p *prototypes) Name() string       { return p.name }

func (p *prototypes) Sample(rng *tensor.RNG, class int, env Env) []float32 {
	proto := p.protos[class*p.views+rng.Intn(p.views)]
	n := len(proto)
	subj := env.Subject % p.subjects
	a := p.subjectA[subj*n : (subj+1)*n]
	b := p.subjectB[subj*n : (subj+1)*n]
	out := make([]float32, n)
	for i := range out {
		v := float32(proto[i]*a[i]) + b[i]
		v = float32(v*env.Contrast) + env.Brightness
		out[i] = v + float32(env.Noise*float32(rng.NormFloat64()))
	}
	return out
}

// NewSynthHAR substitutes the UCI HAR dataset: 6 activity classes over a
// feature vector, with strong per-subject transforms (the dataset's dominant
// non-IID axis is feature skew across the 30 subjects).
func NewSynthHAR(seed int64) Generator {
	return newPrototypes(seed, "synth-har", []int{64}, 6, 30, 0.65)
}

// NewSynthImage substitutes CIFAR-10/100: classes class-prototype images
// with appearance variation. side is the square image size; channels 3.
func NewSynthImage(seed int64, classes, side int) Generator {
	return &imageGen{
		prototypes: newPrototypes(seed, "synth-image", []int{3, side, side}, classes, 12, 0.8),
		side:       side,
	}
}

// imageGen adds spatially-correlated structure on top of prototypes so that
// convolutions (and pooling) have local patterns to exploit.
type imageGen struct {
	*prototypes
	side int
}

func (g *imageGen) Sample(rng *tensor.RNG, class int, env Env) []float32 {
	out := g.prototypes.Sample(rng, class, env)
	// Smooth each channel with a 2-tap blur and add a random global shift of
	// up to one pixel, imitating viewpoint jitter.
	side := g.side
	dx, dy := rng.Intn(3)-1, rng.Intn(3)-1
	smoothed := make([]float32, len(out))
	for c := 0; c < 3; c++ {
		base := c * side * side
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				sy, sx := y+dy, x+dx
				if sy < 0 {
					sy = 0
				}
				if sy >= side {
					sy = side - 1
				}
				if sx < 0 {
					sx = 0
				}
				if sx >= side {
					sx = side - 1
				}
				v := out[base+sy*side+sx]
				if sx+1 < side {
					v = float32(0.7*v) + float32(0.3*out[base+sy*side+sx+1])
				}
				smoothed[base+y*side+x] = v
			}
		}
	}
	return smoothed
}

// NewSynthSpeech substitutes Google Speech Commands: 35 command classes over
// a spectrogram-like 2-D feature map with temporal structure.
func NewSynthSpeech(seed int64) Generator {
	return &speechGen{
		prototypes: newPrototypes(seed, "synth-speech", []int{1, 16, 16}, 35, 20, 0.7),
	}
}

// speechGen warps prototypes along the time axis (dimension 2), imitating
// speaking-rate variation.
type speechGen struct {
	*prototypes
}

func (g *speechGen) Sample(rng *tensor.RNG, class int, env Env) []float32 {
	base := g.prototypes.Sample(rng, class, env)
	// Time warp: resample columns with a random rate in [0.85, 1.15].
	const freq, time = 16, 16
	rate := 0.85 + float64(0.3*rng.Float64())
	out := make([]float32, len(base))
	for t := 0; t < time; t++ {
		src := float64(float64(t) * rate)
		t0 := int(src)
		frac := float32(src - float64(t0))
		t1 := t0 + 1
		if t0 >= time {
			t0 = time - 1
		}
		if t1 >= time {
			t1 = time - 1
		}
		for f := 0; f < freq; f++ {
			v0 := base[f*time+t0]
			v1 := base[f*time+t1]
			out[f*time+t] = float32(v0*(1-frac)) + float32(v1*frac)
		}
	}
	return out
}

// MakeDataset draws n samples uniformly over the given classes under env.
func MakeDataset(rng *tensor.RNG, gen Generator, env Env, classes []int, n int) *Dataset {
	d := NewDataset(gen.SampleShape(), gen.NumClasses())
	for i := 0; i < n; i++ {
		c := classes[rng.Intn(len(classes))]
		d.Add(gen.Sample(rng, c, env), c)
	}
	return d
}

// MakeBalancedDataset draws nPerClass samples for every class; the global
// test sets use this.
func MakeBalancedDataset(rng *tensor.RNG, gen Generator, env Env, nPerClass int) *Dataset {
	d := NewDataset(gen.SampleShape(), gen.NumClasses())
	for c := 0; c < gen.NumClasses(); c++ {
		for i := 0; i < nPerClass; i++ {
			d.Add(gen.Sample(rng, c, env), c)
		}
	}
	return d
}

// AllClasses returns [0, 1, ..., n-1].
func AllClasses(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// ClassDistance returns the mean L2 distance between the first views of two
// class prototypes of a prototypes-backed generator; exported for tests that
// validate learnability of the synthetic tasks.
func ClassDistance(gen Generator, a, b int) float64 {
	var p *prototypes
	switch g := gen.(type) {
	case *prototypes:
		p = g
	case *imageGen:
		p = g.prototypes
	case *speechGen:
		p = g.prototypes
	default:
		return math.NaN()
	}
	pa, pb := p.protos[a*p.views], p.protos[b*p.views]
	var s float64
	for i := range pa {
		d := float64(pa[i] - pb[i])
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(pa)))
}
