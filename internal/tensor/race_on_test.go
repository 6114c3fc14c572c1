//go:build race

package tensor

// raceEnabled reports whether the race detector is compiled in. The
// zero-alloc test skips under -race: the race runtime allocates shadow state
// on instrumented accesses, so AllocsPerRun counts detector bookkeeping, not
// hot-path garbage.
const raceEnabled = true
