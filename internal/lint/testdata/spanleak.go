package fixtures

import "repro/internal/obs/span"

// spanleak: exactly two findings. A span that Starts but never Ends silently
// vanishes from the flight recorder — one leak via an early return, one via
// handing the span to a callee that drops it. The deferred, straight-line,
// transitive-finish, and return-to-caller variants below must stay quiet.

func leakyAttempt(rec *span.Recorder, t span.TraceID, fail bool) int {
	a := rec.Start(t, 0, "rpc.attempt") // want: not ended before the early return
	a.SetAttempt(1)
	if fail {
		return 0
	}
	a.End()
	return 1
}

func leakySwallow(rec *span.Recorder, t span.TraceID) {
	s := rec.Start(t, 0, "rpc.attempt") // want: swallow never Ends its parameter
	swallow(s)
}

func swallow(a span.Active) { a.SetBytes(1) }

func deferredEnd(rec *span.Recorder, t span.TraceID, fail bool) int {
	d := rec.Start(t, 0, "srv.handle")
	defer d.End()
	if fail {
		return 0
	}
	return 1
}

func straightLine(rec *span.Recorder, t span.TraceID) {
	p := rec.Start(t, 0, "srv.phase")
	p.SetRound(2)
	p.End()
}

func handsOff(rec *span.Recorder, t span.TraceID) {
	h := rec.Start(t, 0, "rpc.backoff")
	finish(h)
}

func finish(a span.Active) { a.End() }

func begins(rec *span.Recorder, t span.TraceID) span.Active {
	b := rec.Start(t, 0, "fed.fetch")
	b.SetDevice(3)
	return b
}
