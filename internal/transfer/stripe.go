package transfer

// Striped data plane: one transfer session fans its chunks out over a
// resizable set of parallel data connections (the controller's conns
// dimension n_c), each opening with the session's preamble.
// Network workers (the streams-per-connection dimension n_s; n_c·n_s of
// them in total) share the connections — worker i sends on slot i mod
// n_c and moves only past a dead slot, and a per-connection mutex
// serializes frame writes — so the two dimensions resize independently:
// growing streams adds workers, growing conns adds sockets for them to
// spread over. The receiver fans every connection of a session into
// the same staging/commit path, so striping changes nothing about
// resume, ledger, or checksum semantics.

import (
	"errors"
	"net"
	"sync"

	"automdt/internal/wire"
)

// chunkRef names one chunk that crossed (or should cross) the wire.
type chunkRef struct {
	fileID uint32
	off    int64
	n      int32
}

// dataConn is one striped data connection slot. The socket is dialed
// lazily by the first worker that picks the slot; its mutex serializes
// the dial and every frame write. sent is the slot's chunk history — the
// candidate loss set a recovery re-plans when the connection dies.
type dataConn struct {
	index int

	mu   sync.Mutex
	conn net.Conn
	fw   wire.FrameWriter
	sent []chunkRef

	// dead is guarded by the owning connSet's mutex, not mu, so pick can
	// skip dead slots without taking each slot's write lock.
	dead bool
}

// takeHistory drains a dead slot's sent history for recovery.
func (c *dataConn) takeHistory() []chunkRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.sent
	c.sent = nil
	return h
}

// errConnsExhausted reports that no live data connection remains; only
// then does a striped sender fail the attempt.
var errConnsExhausted = errors.New("transfer: every data connection is dead")

// connSet is a session's striped connection pool.
type connSet struct {
	dial   func(index int) (net.Conn, error) // dial + preamble; retries internally
	onConn func(index int, conn net.Conn)    // Hooks.OnDataConn, may be nil

	mu    sync.Mutex
	conns []*dataConn
	want  int    // live prefix length (the controller's n_c)
	next  uint64 // rotation cursor
}

func newConnSet(want int, dial func(int) (net.Conn, error), onConn func(int, net.Conn)) *connSet {
	if want < 1 {
		want = 1
	}
	return &connSet{dial: dial, onConn: onConn, want: want}
}

// setWant resizes the live prefix. Growth exposes fresh slots (dialed on
// first pick); shrinking retires slots beyond the prefix without closing
// them — their kernel buffers keep draining, and a later grow reuses
// them.
func (cs *connSet) setWant(n int) {
	if n < 1 {
		n = 1
	}
	cs.mu.Lock()
	cs.want = n
	cs.mu.Unlock()
}

// size returns the configured live-prefix length.
func (cs *connSet) size() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.want
}

// pick returns a connection slot. A non-negative hint (the calling
// worker's id) pins the worker to one slot while it lives — affinity
// keeps each socket's frame stream batched and avoids every worker
// contending on every slot's write lock — and workers spread evenly
// because ids are assigned densely. With a negative hint, or when the
// hinted slot is dead, it falls back to rotation over live slots in the
// prefix, then any live retired slot, and returns nil only when no live
// slot exists.
func (cs *connSet) pick(hint int) *dataConn {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for len(cs.conns) < cs.want {
		cs.conns = append(cs.conns, &dataConn{index: len(cs.conns)})
	}
	if hint >= 0 {
		if c := cs.conns[hint%cs.want]; !c.dead {
			return c
		}
	}
	for try := 0; try < cs.want; try++ {
		c := cs.conns[int(cs.next)%cs.want]
		cs.next++
		if !c.dead {
			return c
		}
	}
	for _, c := range cs.conns {
		if !c.dead {
			return c
		}
	}
	return nil
}

// markDead retires a failed slot permanently and closes its socket. It
// reports whether this call was the one that killed it, so exactly one
// caller runs the slot's recovery.
func (cs *connSet) markDead(c *dataConn) bool {
	cs.mu.Lock()
	if c.dead {
		cs.mu.Unlock()
		return false
	}
	c.dead = true
	cs.mu.Unlock()
	c.mu.Lock()
	if c.conn != nil {
		c.conn.Close()
	}
	c.mu.Unlock()
	return true
}

// slot returns the slot at index, which dial has been asked to connect.
func (cs *connSet) slot(index int) *dataConn {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.conns[index]
}

// ensure connects slot c's socket on first use (c.mu held by the
// caller). The dial arms the connection's read-side death watch, which
// is how a receiver-side close (e.g. a checksum failure on a frame that
// already left the sender's buffers) surfaces when no later write exists
// to fail.
func (cs *connSet) ensure(c *dataConn) error {
	if c.conn != nil {
		return nil
	}
	conn, err := cs.dial(c.index)
	if err != nil {
		return err
	}
	c.conn = conn
	if cs.onConn != nil {
		cs.onConn(c.index, conn)
	}
	return nil
}

// writeBatch sends a batch of frames on slot c as one vectored write
// (header and payload iovecs of every frame in a single writev),
// dialing the socket on first use and recording each chunk in the
// slot's history once the batch is on the wire.
func (cs *connSet) writeBatch(c *dataConn, frames []wire.Frame) error {
	if len(frames) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := cs.ensure(c); err != nil {
		return err
	}
	if err := c.fw.WriteBatch(c.conn, frames); err != nil {
		return err
	}
	for _, f := range frames {
		c.sent = append(c.sent, chunkRef{fileID: f.FileID, off: f.Offset, n: int32(len(f.Data))})
	}
	return nil
}

// finish retires every slot at the end of a run, when all writes are
// done and every socket sits at a frame boundary. It gives pool each
// connection that was never marked dead and is not wrapped, and closes
// the rest; a nil pool closes them all.
func (cs *connSet) finish(pool *ConnPool) {
	cs.mu.Lock()
	conns := append([]*dataConn(nil), cs.conns...)
	live := make([]bool, len(conns))
	for i, c := range conns {
		live[i] = !c.dead
		c.dead = true
	}
	cs.mu.Unlock()
	for i, c := range conns {
		c.mu.Lock()
		if sock, ok := c.conn.(*dataSock); ok && live[i] {
			pool.putData(sock)
		} else if c.conn != nil {
			c.conn.Close()
		}
		c.mu.Unlock()
	}
}
