//go:build race

package modular

// raceEnabled reports whether the race detector is compiled in. The
// zero-alloc steady-state test skips under -race: the race runtime allocates
// shadow state on instrumented accesses, so AllocsPerRun counts detector
// bookkeeping, not hot-path garbage.
const raceEnabled = true
