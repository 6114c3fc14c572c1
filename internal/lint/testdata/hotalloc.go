// Package testdata holds fixtures; each file triggers exactly one check.
package testdata

// Minimal stand-in for the tensor fan-out so the fixture exercises the
// callee-name match without importing the real package.
func ParallelFor(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
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
