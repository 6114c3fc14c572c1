package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/obs/span"
)

// spanViews rebuilds each trace's parent/child tree and checks (-check),
// draws (-waterfall) or summarizes it.
func spanViews(spans []span.Span, check, waterfall bool, top int) {
	traces := buildTraces(spans)
	roots, roundRoots := countRoots(traces)
	if check {
		fmt.Printf("traces=%d spans=%d roots=%d round_roots=%d\n", len(traces), len(spans), roots, roundRoots)
		if err := span.ValidateParents(spans); err != nil {
			fail(1, "check:", err)
		}
		return
	}
	if waterfall {
		printWaterfalls(os.Stdout, traces, top)
		return
	}
	fmt.Printf("spans:  %d across %d traces (%d roots)\n", len(spans), len(traces), roots)
	printCriticalPaths(os.Stdout, traces)
	printSelfTime(os.Stdout, traces)
}

// node is one span plus its resolved children, sorted by start offset.
type node struct {
	s        *span.Span
	children []*node
}

// traceTree is one reconstructed trace: its roots (parent 0 or missing) in
// start order, plus the total span count.
type traceTree struct {
	id    span.TraceID
	roots []*node
	n     int
}

// buildTraces groups spans by trace and links children to parents. A span
// whose parent is absent (recorder wrapped mid-trace) is promoted to a root,
// so truncated captures still render instead of vanishing.
func buildTraces(spans []span.Span) []*traceTree {
	byTrace := map[span.TraceID][]*node{}
	var order []span.TraceID
	for i := range spans {
		s := &spans[i]
		if _, seen := byTrace[s.Trace]; !seen {
			order = append(order, s.Trace)
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], &node{s: s})
	}
	var out []*traceTree
	for _, id := range order {
		nodes := byTrace[id]
		byID := make(map[span.SpanID]*node, len(nodes))
		for _, n := range nodes {
			byID[n.s.ID] = n
		}
		t := &traceTree{id: id, n: len(nodes)}
		for _, n := range nodes {
			if parent := byID[n.s.Parent]; n.s.Parent != 0 && parent != nil && parent != n {
				parent.children = append(parent.children, n)
			} else {
				t.roots = append(t.roots, n)
			}
		}
		for _, n := range nodes {
			sortNodes(n.children)
		}
		sortNodes(t.roots)
		out = append(out, t)
	}
	// Traces ordered by their earliest root (round order in a sim capture),
	// trace ID breaking ties so the rendering is deterministic.
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := out[i].start(), out[j].start()
		if si != sj {
			return si < sj
		}
		return out[i].id < out[j].id
	})
	return out
}

func sortNodes(ns []*node) {
	sort.SliceStable(ns, func(i, j int) bool {
		if ns[i].s.Start != ns[j].s.Start {
			return ns[i].s.Start < ns[j].s.Start
		}
		return ns[i].s.ID < ns[j].s.ID
	})
}

func (t *traceTree) start() float64 {
	if len(t.roots) == 0 {
		return 0
	}
	return t.roots[0].s.Start
}

// countRoots counts the traces' roots, and among them the fed.round spans
// that are true roots (parent 0), one per sampled round.
func countRoots(traces []*traceTree) (roots, roundRoots int) {
	for _, t := range traces {
		roots += len(t.roots)
		for _, r := range t.roots {
			if r.s.Kind == "fed.round" && r.s.Parent == 0 {
				roundRoots++
			}
		}
	}
	return roots, roundRoots
}

// printCriticalPaths walks each fed.round root down its slowest-finishing
// child chain — the wall-clock critical path of the round: the sequence of
// operations that, if shortened, would shorten the round itself.
func printCriticalPaths(w io.Writer, traces []*traceTree) {
	printed := false
	for _, t := range traces {
		for _, root := range t.roots {
			if root.s.Kind != "fed.round" {
				continue
			}
			if !printed {
				fmt.Fprintf(w, "\ncritical paths (slowest-finishing child chain per round):\n")
				printed = true
			}
			fmt.Fprintf(w, "  round %d (%s):", root.s.Round, metrics.FmtDur(root.s.Dur))
			for n := root; n != nil; n = slowestChild(n) {
				if n != root {
					fmt.Fprintf(w, " → %s", stepLabel(n.s))
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// slowestChild picks the child whose end offset is latest — the one the
// parent actually waited for.
func slowestChild(n *node) *node {
	var worst *node
	for _, c := range n.children {
		if worst == nil || c.s.End() > worst.s.End() {
			worst = c
		}
	}
	return worst
}

func stepLabel(s *span.Span) string {
	label := fmt.Sprintf("%s(%s", s.Kind, metrics.FmtDur(s.Dur))
	if s.Device != 0 {
		label += fmt.Sprintf(", dev %d", s.Device)
	}
	if s.Attempt != 0 {
		label += fmt.Sprintf(", attempt %d", s.Attempt)
	}
	if s.Err != "" {
		label += ", err"
	}
	return label + ")"
}

// printSelfTime aggregates self-time — a span's duration minus its
// children's, clamped at zero — by kind, so time spent *in* an operation is
// separated from time spent waiting on its children.
func printSelfTime(w io.Writer, traces []*traceTree) {
	type agg struct {
		kind  string
		self  float64
		total float64
		count int
	}
	byKind := map[string]*agg{}
	var kinds []string
	var visit func(n *node)
	visit = func(n *node) {
		childDur := 0.0
		for _, c := range n.children {
			childDur += c.s.Dur
			visit(c)
		}
		self := n.s.Dur - childDur
		if self < 0 {
			self = 0 // children overlap the parent's span (parallel fan-out)
		}
		a := byKind[n.s.Kind]
		if a == nil {
			a = &agg{kind: n.s.Kind}
			byKind[n.s.Kind] = a
			kinds = append(kinds, n.s.Kind)
		}
		a.self += self
		a.total += n.s.Dur
		a.count++
	}
	for _, t := range traces {
		for _, root := range t.roots {
			visit(root)
		}
	}
	sort.SliceStable(kinds, func(i, j int) bool {
		ai, aj := byKind[kinds[i]], byKind[kinds[j]]
		if ai.self != aj.self {
			return ai.self > aj.self
		}
		return ai.kind < aj.kind
	})
	fmt.Fprintf(w, "\nself-time by span kind (duration minus children, summed):\n")
	fmt.Fprintf(w, "  %-18s %10s %10s %8s\n", "kind", "self", "total", "count")
	for _, k := range kinds {
		a := byKind[k]
		fmt.Fprintf(w, "  %-18s %10s %10s %8d\n", a.kind, metrics.FmtDur(a.self), metrics.FmtDur(a.total), a.count)
	}
}

// printWaterfalls renders each trace as an indented tree with offset and
// duration columns relative to the trace's first root.
func printWaterfalls(w io.Writer, traces []*traceTree, top int) {
	selected := traces
	if top > 0 && top < len(traces) {
		selected = append([]*traceTree(nil), traces...)
		sort.SliceStable(selected, func(i, j int) bool { return selected[i].n > selected[j].n })
		selected = selected[:top]
		sort.SliceStable(selected, func(i, j int) bool { return selected[i].start() < selected[j].start() })
	}
	for _, t := range selected {
		fmt.Fprintf(w, "trace %016x (%d spans)\n", uint64(t.id), t.n)
		epoch := t.start()
		var visit func(n *node, depth int)
		visit = func(n *node, depth int) {
			s := n.s
			fmt.Fprintf(w, "  %9s %9s %s%s", metrics.FmtDur(s.Start-epoch), metrics.FmtDur(s.Dur),
				strings.Repeat("· ", depth), s.Kind)
			if s.Device != 0 {
				fmt.Fprintf(w, " dev=%d", s.Device)
			}
			if s.Round != 0 {
				fmt.Fprintf(w, " round=%d", s.Round)
			}
			if s.Attempt != 0 {
				fmt.Fprintf(w, " attempt=%d", s.Attempt)
			}
			if s.Bytes != 0 {
				fmt.Fprintf(w, " bytes=%d", s.Bytes)
			}
			if s.Note != "" {
				fmt.Fprintf(w, " note=%s", s.Note)
			}
			if s.Err != "" {
				fmt.Fprintf(w, " err=%q", s.Err)
			}
			fmt.Fprintln(w)
			for _, c := range n.children {
				visit(c, depth+1)
			}
		}
		for _, root := range t.roots {
			visit(root, 0)
		}
	}
}
