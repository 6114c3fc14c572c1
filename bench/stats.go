package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of the
// samples: the smallest value with at least p% of the samples at or below
// it. It returns 0 for an empty sample.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples.
func nearestRank(n int, p float64) int {
	return max(1, min(n, int(math.Ceil(p/100*float64(n)))))
}

// samplesBeyond is how many samples rank above the p-th percentile.
func samplesBeyond(n int, p float64) int { return n - nearestRank(n, p) }

// supportedTail returns the highest of the candidate percentiles that still
// has at least ten samples beyond it, and false when not even the lowest
// candidate does. A tail percentile read off fewer samples is mostly noise.
func supportedTail(n int, candidates ...float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range candidates {
		if samplesBeyond(n, p) >= 10 && p > best {
			best, ok = p, true
		}
	}
	return best, ok
}

func median(samples []float64) float64 { return percentile(samples, 50) }

// spread summarises repeat runs of one metric: median, quartiles (as Python's
// statistics.quantiles(values, n=4) gives them) and the interquartile
// distance as a share of the median.
type spread struct {
	Median, Q1, Q3, Rel float64
	N                   int
}

func spreadOf(values []float64) spread {
	n := len(values)
	if n == 0 {
		return spread{}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	// The "exclusive" method: position i*(n+1)/4 on a 1-based index, clamped
	// to the sample.
	q := func(i int) float64 {
		if n == 1 {
			return s[0]
		}
		pos := float64(i) * float64(n+1) / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			lo, frac = 1, 0
		}
		if lo >= n {
			lo, frac = n-1, 1
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	sp := spread{Median: q(2), Q1: q(1), Q3: q(3), N: n}
	if sp.Median != 0 {
		sp.Rel = (sp.Q3 - sp.Q1) / math.Abs(sp.Median)
	}
	return sp
}
