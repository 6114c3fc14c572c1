package main

import (
	"sort"
	"strings"

	"repro/internal/obs/span"
)

// The traced pass. The benchmark opens one root span per operation (kind
// "bench.<op>", one trace id per operation) and, where it calls a layer
// directly, a child span named after the call. Spans the program already
// emits (fed.*, rpc.*, srv.*) land in the same recorder. Everything stays in
// memory until the run ends.

// benchRootPrefix marks the benchmark's own wrapper spans: their self time
// is loop and bookkeeping overhead of the benchmark, i.e. the unattributed
// remainder.
const benchRootPrefix = "bench."

// adoptOrphans parents every parentless program span under the benchmark
// root of the same trace whose interval contains it. fed.Nebula opens its
// fed.round span as a root (there is no hook to hand it a parent), but the
// benchmark's bench.round span shares its trace id and encloses it.
func adoptOrphans(spans []span.Span) {
	roots := map[span.TraceID][]int{}
	for i := range spans {
		if spans[i].Parent == 0 && strings.HasPrefix(spans[i].Kind, benchRootPrefix) {
			roots[spans[i].Trace] = append(roots[spans[i].Trace], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || strings.HasPrefix(s.Kind, benchRootPrefix) {
			continue
		}
		for _, ri := range roots[s.Trace] {
			r := &spans[ri]
			if r.Start <= s.Start && s.End() <= r.End() {
				s.Parent = r.ID
				break
			}
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap one another
// (parallel devices under one round) and may stick out of the parent
// (clock skew of separate stopwatches); only the covered part of the
// parent's own interval is subtracted.
func selfTimes(spans []span.Span) map[span.SpanID]float64 {
	type iv struct{ lo, hi float64 }
	children := map[span.SpanID][]iv{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], iv{spans[i].Start, spans[i].End()})
		}
	}
	out := make(map[span.SpanID]float64, len(spans))
	for i := range spans {
		s := &spans[i]
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, cur := 0.0, s.Start
		for _, c := range ivs {
			lo, hi := c.lo, c.hi
			if lo < cur {
				lo = cur
			}
			if hi > s.End() {
				hi = s.End()
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self := s.Dur - covered
		if self < 0 {
			self = 0
		}
		out[s.ID] = self
	}
	return out
}

// traceSummary is what the per-layer table reads off a recorder snapshot.
type traceSummary struct {
	selfByKind  map[string]float64 // Σ self time per span kind, seconds
	durByKind   map[string]float64 // Σ duration per span kind, seconds
	countByKind map[string]int
	attributed  float64 // Σ over root spans of the time inside named layer spans
	rootTime    float64 // Σ duration of root spans
}

func summarizeSpans(spans []span.Span) traceSummary {
	adoptOrphans(spans)
	self := selfTimes(spans)
	ts := traceSummary{
		selfByKind:  map[string]float64{},
		durByKind:   map[string]float64{},
		countByKind: map[string]int{},
	}
	for i := range spans {
		s := &spans[i]
		ts.selfByKind[s.Kind] += self[s.ID]
		ts.durByKind[s.Kind] += s.Dur
		ts.countByKind[s.Kind]++
		if s.Parent != 0 {
			continue
		}
		ts.rootTime += s.Dur
		if strings.HasPrefix(s.Kind, benchRootPrefix) {
			ts.attributed += s.Dur - self[s.ID]
		} else {
			ts.attributed += s.Dur
		}
	}
	return ts
}

// coverage is the share of the traced phase's wall time, summed over the
// benchmark's sequential lanes (one per driver goroutine), that falls inside
// a named layer span. The remainder is benchmark loop overhead plus anything
// the program does between spans.
func (ts traceSummary) coverage(wall float64, lanes int) float64 {
	if wall <= 0 || lanes < 1 {
		return 0
	}
	return ts.attributed / (wall * float64(lanes))
}

func sortedKinds(m map[string]float64) []string {
	kinds := make([]string, 0, len(m))
	for k := range m {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}
