package edgenet

import "io"

// errdrop in scope: this package's path ends in internal/edgenet. Exactly
// one finding, on the Close of the io.Closer, whose error is dropped; the
// server's Close returns nothing, so dropping its "result" is not a finding.

type Server struct{}

// Close stops the server; like the real edgenet.Server.Close, it returns
// nothing.
func (s *Server) Close() {}

func shutdown(srv *Server, conn io.Closer) {
	srv.Close()
	conn.Close()
}
