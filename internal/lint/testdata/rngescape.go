package fixtures

// rngescape: a master RNG stream captured by a parallel worker body makes
// the draw sequence scheduling-dependent — one finding per executor, on the
// captured streams below. serve and globalRound reach ParallelForWorkers only
// through a parameter, so they are matched by name like the others. The
// local RNG type stands in for tensor.RNG (the check matches the resolved
// type name, not the package).

type RNG struct{ state uint64 }

func (r *RNG) Float64() float64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return float64(r.state>>11) / (1 << 53)
}

func ParallelForWorkers(workers, n int, fn func(w, i int)) {
	for i := 0; i < n; i++ {
		fn(0, i)
	}
}

func perturbAll(devices []float64, rng *RNG) {
	ParallelForWorkers(0, len(devices), func(_, i int) {
		devices[i] += rng.Float64() // want: shared stream in a worker body
	})
}

func serve(n int, work func(i int, m float64)) {
	ParallelForWorkers(0, n, func(_, i int) { work(i, 0) })
}

func jitterAll(devices []float64, rng *RNG) {
	serve(len(devices), func(i int, m float64) {
		devices[i] = m + rng.Float64() // want: shared stream in a serve body
	})
}

func globalRound(n int, local func(i int) float64) {
	ParallelForWorkers(0, n, func(_, i int) { local(i) })
}

func trainAll(devices []float64, rng *RNG) {
	globalRound(len(devices), func(i int) float64 {
		return devices[i] + rng.Float64() // want: shared stream in a globalRound body
	})
}
