package data

import (
	"math"
	"slices"

	"repro/internal/tensor"
)

// DeviceData is one edge device's current local task: a class subset (label
// skew), an environment (feature skew), and the training data collected under
// them. The local task changes over time through Shift, modelling the
// paper's dynamic edge environments.
type DeviceData struct {
	ID      int
	Gen     Generator
	Env     Env
	Classes []int
	Train   *Dataset
	Volume  int

	rng *tensor.RNG
}

// NewDeviceData builds a device with the given local class subset and data
// volume and generates its initial training data.
func NewDeviceData(rng *tensor.RNG, gen Generator, id int, classes []int, env Env, volume int) *DeviceData {
	d := &DeviceData{ID: id, Gen: gen, Env: env, Classes: append([]int(nil), classes...), Volume: volume, rng: rng.Split()}
	d.Regenerate()
	return d
}

// Regenerate replaces the whole training set with fresh draws from the
// current local distribution.
func (d *DeviceData) Regenerate() {
	d.Train = MakeDataset(d.rng, d.Gen, d.Env, d.Classes, d.Volume)
}

// Shift simulates one environment change: replaceFrac of the local classes
// rotate to new ones from the global pool, the environment drifts, and
// replaceFrac of the stored samples are replaced with draws from the new
// distribution. This is the paper's "replace 50% of the local data with new
// data" adaptation-step protocol.
func (d *DeviceData) Shift(replaceFrac float64) {
	nClasses := d.Gen.NumClasses()
	nReplace := int(float64(float64(len(d.Classes))*replaceFrac) + 0.5)
	for r := 0; r < nReplace; r++ {
		// Pick a class not currently held.
		for tries := 0; tries < 50; tries++ {
			c := d.rng.Intn(nClasses)
			if !slices.Contains(d.Classes, c) {
				d.Classes[d.rng.Intn(len(d.Classes))] = c
				break
			}
		}
	}
	// Environment drift.
	d.Env.Brightness += float32(d.rng.NormFloat64() * 0.05)
	d.Env.Contrast *= 1 + float32(d.rng.NormFloat64()*0.03)
	// Replace a fraction of stored samples with fresh draws.
	n := d.Train.Len()
	nNew := int(float64(float64(n)*replaceFrac) + 0.5)
	perm := d.rng.Perm(n)
	for i := 0; i < nNew && i < n; i++ {
		c := d.Classes[d.rng.Intn(len(d.Classes))]
		d.Train.X[perm[i]] = d.Gen.Sample(d.rng, c, d.Env)
		d.Train.Y[perm[i]] = c
	}
}

// ReplaceData refreshes replaceFrac of the stored samples from the current
// class subset and environment without rotating classes — data arrival
// without task change.
func (d *DeviceData) ReplaceData(replaceFrac float64) {
	n := d.Train.Len()
	nNew := int(float64(float64(n)*replaceFrac) + 0.5)
	perm := d.rng.Perm(n)
	for i := 0; i < nNew && i < n; i++ {
		c := d.Classes[d.rng.Intn(len(d.Classes))]
		d.Train.X[perm[i]] = d.Gen.Sample(d.rng, c, d.Env)
		d.Train.Y[perm[i]] = c
	}
}

// TestSet draws a fresh evaluation set from the device's current local
// distribution; local-task accuracy is measured on this.
func (d *DeviceData) TestSet(n int) *Dataset {
	return MakeDataset(d.rng, d.Gen, d.Env, d.Classes, n)
}

// PartitionConfig controls fleet construction.
type PartitionConfig struct {
	NumDevices int
	// ClassesPerDevice is the paper's m (label skew). 0 means all classes.
	ClassesPerDevice int
	// MinVolume and MaxVolume bound the unbalanced per-device sample counts
	// (50–150 in the paper).
	MinVolume, MaxVolume int
	// FeatureSkew assigns each device a distinct subject (HAR-style); label
	// skew may still apply on top.
	FeatureSkew bool
}

// NewFleet builds the device population. Class subsets are drawn so that
// nearby devices share sub-tasks: a device's m classes are a contiguous run
// from a random start, matching the paper's observation that classes
// "usually appear together" in a context. Contiguity also defines the
// sub-tasks used by module ability-enhancing training.
func NewFleet(rng *tensor.RNG, gen Generator, cfg PartitionConfig) []*DeviceData {
	devices := make([]*DeviceData, cfg.NumDevices)
	nClasses := gen.NumClasses()
	m := cfg.ClassesPerDevice
	if m <= 0 || m > nClasses {
		m = nClasses
	}
	for i := range devices {
		start := rng.Intn(nClasses)
		classes := make([]int, m)
		for j := range classes {
			classes[j] = (start + j) % nClasses
		}
		env := RandomEnv(rng)
		if cfg.FeatureSkew {
			env.Subject = i % 30
		}
		vol := cfg.MinVolume
		if cfg.MaxVolume > cfg.MinVolume {
			vol += rng.Intn(cfg.MaxVolume - cfg.MinVolume + 1)
		}
		devices[i] = NewDeviceData(rng, gen, i, classes, env, vol)
	}
	return devices
}

// SampleDirichlet draws a probability vector from a symmetric Dirichlet(α)
// distribution using Gamma(α,1) marginals (Marsaglia–Tsang sampling).
// Smaller α concentrates mass on fewer classes — the standard non-IID
// severity knob in the federated-learning literature.
func SampleDirichlet(rng *tensor.RNG, n int, alpha float64) []float64 {
	out := make([]float64, n)
	var sum float64
	for i := range out {
		g := sampleGamma(rng, alpha)
		out[i] = g
		sum += g
	}
	if sum <= 0 {
		// Degenerate draw: fall back to one-hot on a random class.
		out[rng.Intn(n)] = 1
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// sampleGamma draws from Gamma(shape α, scale 1) via Marsaglia–Tsang, with
// the standard α<1 boost.
func sampleGamma(rng *tensor.RNG, alpha float64) float64 {
	if alpha < 1 {
		u := rng.Float64()
		if u == 0 {
			u = 1e-12
		}
		return sampleGamma(rng, alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1.0 / (3.0 * math.Sqrt(d))
	for {
		x := rng.NormFloat64()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := rng.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if u > 0 && math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}

// NewDirichletFleet builds a device population whose per-device class
// distributions are Dirichlet(α) draws: each device samples its local data
// from its own class mixture instead of a hard m-of-n subset. Classes whose
// probability exceeds 1/(4n) count as "held" for sub-model purposes.
func NewDirichletFleet(rng *tensor.RNG, gen Generator, numDevices int, alpha float64, minVol, maxVol int) []*DeviceData {
	devices := make([]*DeviceData, numDevices)
	n := gen.NumClasses()
	for i := range devices {
		p := SampleDirichlet(rng, n, alpha)
		var classes []int
		for c, v := range p {
			if v > 1/float64(4*n) {
				classes = append(classes, c)
			}
		}
		if len(classes) == 0 {
			classes = []int{rng.Intn(n)}
		}
		vol := minVol
		if maxVol > minVol {
			vol += rng.Intn(maxVol - minVol + 1)
		}
		dev := &DeviceData{ID: i, Gen: gen, Env: RandomEnv(rng), Classes: classes, Volume: vol, rng: rng.Split()}
		// Draw samples from the mixture itself (not uniform over classes).
		dev.Train = NewDataset(gen.SampleShape(), n)
		for s := 0; s < vol; s++ {
			c := dev.rng.Categorical(p)
			dev.Train.Add(gen.Sample(dev.rng, c, dev.Env), c)
		}
		devices[i] = dev
	}
	return devices
}

// NumSubTasks is the sub-task count T used by module ability-enhancing
// training for a generator: classes are grouped into contiguous runs of
// groupSize (the same contiguity NewFleet uses), so a device's local task
// maps to one or two sub-tasks.
func NumSubTasks(numClasses, groupSize int) int {
	if groupSize <= 0 {
		groupSize = 1
	}
	return (numClasses + groupSize - 1) / groupSize
}

// SubTaskOf maps a class to its sub-task id under contiguous grouping.
func SubTaskOf(class, groupSize int) int {
	if groupSize <= 0 {
		groupSize = 1
	}
	return class / groupSize
}
