// Package trace is the mini-module's sink: its import path ends in
// internal/trace, so recording methods on its types are artifact emissions.
// Nothing here is a finding — the bug is in the emit package.
package trace

type Span struct {
	events []string
}

func (s *Span) Event(name string) {
	s.events = append(s.events, name)
}

func (s *Span) Len() int { return len(s.events) }
