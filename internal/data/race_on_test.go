//go:build race

package data

// raceEnabled reports whether the race detector is compiled in. The
// allocation-budget test skips under -race: the race runtime allocates shadow
// state on instrumented accesses, so the count would be the detector's.
const raceEnabled = true
