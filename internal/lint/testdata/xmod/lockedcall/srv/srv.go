// Package srv holds the mini-module's critical-section bug: Broadcast sends
// on the wire while holding the registry mutex. The call itself
// (codec.Send) looks innocent; it blocks because Send's body reaches
// (*gob.Encoder).Encode two packages away — the finding only exists if the
// engine walks the callee chain transitively. Two more findings are calls
// that never block but cost CPU time proportional to the model — a weight
// clone and the quantizer, recognised by package path suffix — each beside
// the clean snapshot-then-work variant. Exactly three lockedcall findings.
package srv

import (
	"sync"

	"xmodlock/internal/modular"
	"xmodlock/internal/nn"
	"xmodlock/wire"
)

type Server struct {
	mu     sync.Mutex
	peers  []*wire.Codec
	rounds int
	model  *modular.Model
}

func (s *Server) Broadcast(v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rounds++
	for _, c := range s.peers {
		_ = c.Send(v) // want: gob encode under s.mu, resolved through wire.Send
	}
}

// BroadcastSnapshot is the sanctioned serveSubModel shape: copy the peer
// list under the lock, do the slow sends outside. No finding.
func (s *Server) BroadcastSnapshot(v any) {
	s.mu.Lock()
	peers := make([]*wire.Codec, len(s.peers))
	copy(peers, s.peers)
	s.rounds++
	s.mu.Unlock()
	for _, c := range peers {
		_ = c.Send(v)
	}
}

// Serve clones the model and quantizes it while holding the lock every other
// handler needs: two findings.
func (s *Server) Serve() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	sub := s.model.Extract()         // want: weight clone under s.mu
	return nn.Quantize8(sub.Weights) // want: quantization under s.mu
}

// ServeSnapshot flattens under the lock and quantizes outside. No finding.
func (s *Server) ServeSnapshot() []byte {
	s.mu.Lock()
	vec := s.model.Flatten(nil)
	s.mu.Unlock()
	return nn.Quantize8(vec)
}
