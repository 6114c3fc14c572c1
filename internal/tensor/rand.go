package tensor

import (
	"math"
	"math/rand"
)

// RNG is a small deterministic random source wrapper shared by the stack.
// Every component that needs randomness takes an explicit *RNG so experiment
// runs are reproducible from a single seed.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives a new independent generator from this one; useful for giving
// each device or worker its own stream.
func (g *RNG) Split() *RNG { return g.SplitInto(nil) }

// SplitInto is Split for a caller that holds a generator it no longer draws
// from: dst is re-seeded in place and returned, and yields exactly the stream
// Split would have returned — seeding a source resets all of its state. Only
// a nil dst allocates.
func (g *RNG) SplitInto(dst *RNG) *RNG {
	seed := g.r.Int63()
	if dst == nil {
		return NewRNG(seed)
	}
	dst.r.Seed(seed)
	return dst
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// FillNormal fills t with Gaussian samples of the given mean and stddev.
func (g *RNG) FillNormal(t *Tensor, mean, std float32) {
	for i := range t.Data {
		t.Data[i] = mean + float32(std*float32(g.r.NormFloat64()))
	}
}

// FillHe fills a weight tensor with He/Kaiming normal initialization for the
// given fan-in; the standard choice in front of ReLU nonlinearities.
func (g *RNG) FillHe(t *Tensor, fanIn int) {
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	g.FillNormal(t, 0, std)
}

// Sample returns k distinct indices drawn uniformly from [0,n).
func (g *RNG) Sample(n, k int) []int {
	if k > n {
		k = n
	}
	p := g.r.Perm(n)
	return p[:k]
}

// Categorical samples an index from the (not necessarily normalized)
// non-negative weights w. Returns len(w)-1 if weights sum to zero.
func (g *RNG) Categorical(w []float64) int {
	var total float64
	for _, v := range w {
		total += v
	}
	if total <= 0 {
		return len(w) - 1
	}
	u := g.r.Float64() * total
	for i, v := range w {
		u -= v
		if u < 0 {
			return i
		}
	}
	return len(w) - 1
}
