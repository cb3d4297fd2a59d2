package transfer

import "io"

// readConn decodes a bare frame stream into s, as a data connection's
// reader does once a preamble bound it to s, and returns the read-ahead
// buffer to its pool.
func (s *rsession) readConn(conn io.Reader) {
	src := newFrameSource(conn)
	defer src.release()
	s.readFrames(src)
}

// closeIdle closes every connection no session owns, as an endpoint that
// drops its idle connections would.
func (r *Receiver) closeIdle() {
	r.mu.Lock()
	idle := make([]io.Closer, 0, len(r.idle))
	for c := range r.idle {
		idle = append(idle, c)
	}
	r.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}
