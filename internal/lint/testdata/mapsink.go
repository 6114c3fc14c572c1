package fixtures

// maporder, sink rule: ranging a map while recording into an io.Writer-shaped
// sink makes the artifact bytes depend on map iteration order — exactly one
// finding, on the range statement below. The local span type is
// writer-shaped (Write([]byte) (int, error)), so the check classifies its
// recording methods structurally, without importing the trace package.

type span struct{ buf []byte }

func (s *span) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}

func (s *span) Event(name string) {
	s.buf = append(s.buf, name...)
}

func emitPerDevice(s *span, loss map[string]float64) {
	for dev := range loss { // want: sink emission in random map order
		s.Event(dev)
	}
}
