package transfer

import (
	"net"
	"sync"

	"automdt/internal/wire"
)

// idleConnsMax bounds each kind of idle connection a ConnPool keeps: a
// scheduler runs a handful of sessions per endpoint at once, and every
// idle connection pins a socket at both ends.
const idleConnsMax = 16

// ConnPool keeps the connections finished sessions left open to one
// endpoint, for the next session to that endpoint. A connection carries
// one session at a time: a Sender takes idle connections as it dials and
// gives them back only after a clean end — the receiver's Done, every
// recovery wound down, and the connection never marked dead. A session
// that sets Config.WrapConn leaves the pool alone, since a wrapper may
// hold bytes past the session's end. A nil *ConnPool never hands out a
// connection and closes every connection it is given. The zero value is
// an empty pool. Safe for concurrent use.
type ConnPool struct {
	mu     sync.Mutex
	closed bool
	ctrl   []*wire.Conn
	data   []*dataSock
}

// Idle reports how many control and data connections the pool holds.
func (p *ConnPool) Idle() (ctrl, data int) {
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ctrl), len(p.data)
}

// Close closes every idle connection and makes the pool close every
// connection it is given from now on: the endpoint is going away.
func (p *ConnPool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.closed = true
	ctrl, data := p.ctrl, p.data
	p.ctrl, p.data = nil, nil
	p.mu.Unlock()
	for _, c := range ctrl {
		c.Close()
	}
	for _, d := range data {
		d.Close()
	}
}

// takeCtrl returns the most recently pooled control connection, or nil.
func (p *ConnPool) takeCtrl() *wire.Conn {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.ctrl)
	if n == 0 {
		return nil
	}
	c := p.ctrl[n-1]
	p.ctrl[n-1] = nil
	p.ctrl = p.ctrl[:n-1]
	return c
}

// putCtrl pools a control connection whose last session ended with Done
// and whose reader has exited, or closes it.
func (p *ConnPool) putCtrl(c *wire.Conn) {
	if p != nil {
		p.mu.Lock()
		if !p.closed && len(p.ctrl) < idleConnsMax {
			p.ctrl = append(p.ctrl, c)
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
	}
	c.Close()
}

// takeData returns the most recently pooled data connection that the
// peer has not closed, owned by onGone, or nil. Stale ones are closed
// on the way.
func (p *ConnPool) takeData(onGone func()) *dataSock {
	if p == nil {
		return nil
	}
	for {
		p.mu.Lock()
		n := len(p.data)
		if n == 0 {
			p.mu.Unlock()
			return nil
		}
		d := p.data[n-1]
		p.data[n-1] = nil
		p.data = p.data[:n-1]
		p.mu.Unlock()
		if d.own(onGone) {
			return d
		}
		d.Close()
	}
}

// putData pools a data connection at a frame boundary, or closes it.
func (p *ConnPool) putData(d *dataSock) {
	if p != nil && d.disown() {
		p.mu.Lock()
		if !p.closed && len(p.data) < idleConnsMax {
			p.data = append(p.data, d)
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
	}
	d.Close()
}

// dataSock is a dialed data connection and its read-side death watch.
// The watch belongs to the connection, not to the session using it: the
// sender never receives on a data connection, so its one Read returns
// only when the peer closed or reset the stream, or the socket was closed
// here. A connection whose watch fired while it sat idle is stale and is
// never handed out again.
type dataSock struct {
	// The concrete type keeps the socket's vectored write: through a
	// net.Conn interface a FrameWriter batch costs a write per buffer.
	*net.TCPConn

	mu     sync.Mutex
	gone   bool
	onGone func() // the owning session's notifier; nil while idle
}

// watchData starts conn's death watch, owned by onGone.
func watchData(conn *net.TCPConn, onGone func()) *dataSock {
	d := &dataSock{TCPConn: conn, onGone: onGone}
	go func() {
		var b [1]byte
		conn.Read(b[:]) //nolint:errcheck // any return means the conn is gone
		d.mu.Lock()
		d.gone = true
		f := d.onGone
		d.mu.Unlock()
		if f != nil {
			f()
		}
	}()
	return d
}

// own hands the watch to a session; false means it already fired.
func (d *dataSock) own(onGone func()) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onGone = onGone
	return !d.gone
}

// disown takes the watch back from its session; false means it already
// fired.
func (d *dataSock) disown() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onGone = nil
	return !d.gone
}
