package fixtures

import "io"

// errdrop out of scope: a protocol write whose error result is discarded,
// in a package outside the paths errdrop applies to (internal/edgenet,
// internal/modular/checkpoint) — no finding. The in-scope twin is
// xmod/errdrop.

func pushFrame(w io.Writer, frame []byte) {
	w.Write(frame)
}
