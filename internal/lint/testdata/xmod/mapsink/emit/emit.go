// Package emit ranges a map while recording into a sink typed in ANOTHER
// package (*trace.Span): the emission order — and therefore the artifact —
// depends on map iteration order. Classifying the call requires resolving
// the receiver type across the import edge. Exactly one maporder
// finding, plus a clean sorted variant; the Len call in the clean variant is
// a read, not a recording, and must stay quiet.
package emit

import (
	"sort"

	"xmodart/internal/trace"
)

func PerDevice(sp *trace.Span, loss map[string]float64) {
	for dev := range loss { // want: cross-package sink emission in map order
		sp.Event(dev)
	}
}

// PerDeviceSorted is the sanctioned shape. No finding.
func PerDeviceSorted(sp *trace.Span, loss map[string]float64) int {
	var keys []string
	for dev := range loss {
		keys = append(keys, dev)
	}
	sort.Strings(keys)
	for _, dev := range keys {
		sp.Event(dev)
	}
	return sp.Len()
}
