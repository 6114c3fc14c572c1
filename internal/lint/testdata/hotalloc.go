// Package testdata holds fixtures; each file triggers exactly one check.
package testdata

// Minimal stand-ins for the tensor fan-outs so the fixture exercises the
// callee-name match without importing the real package: one finding per
// executor below.
func ParallelFor(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

func ParallelForWorkers(workers, n int, fn func(w, i int)) {
	for i := 0; i < n; i++ {
		fn(0, i)
	}
}

func hotAllocScratch() []float32 {
	var out []float32
	ParallelFor(8, func(i int) {
		buf := make([]float32, 64) // want: per-item allocation on the hot path
		out = buf
	})
	return out
}

func hotAllocWorkers(sums []float64) {
	ParallelForWorkers(0, len(sums), func(_, i int) {
		parts := make([]float64, 4) // want: per-item allocation in a worker body
		sums[i] = parts[0]
	})
}
