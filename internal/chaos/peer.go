package chaos

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrPeerKilled marks a write on a connection the hostile peer cut, and
// ErrPeerPartitioned a write attempted while the session is partitioned.
var (
	ErrPeerKilled      = errors.New("chaos: peer killed connection (injected)")
	ErrPeerPartitioned = errors.New("chaos: network partition (injected)")
)

// PeerFault declares a hostile middlebox for one scenario cell. The
// zero value injects nothing.
type PeerFault struct {
	Name string `json:"name"`
	// FlipPerMB is the probability, per data megabyte forwarded, of
	// flipping one random bit in the forwarded copy. Every frame carries
	// a CRC, so every flip must surface as a CRC/decode failure, never as
	// corrupt bytes on disk.
	FlipPerMB float64 `json:"flip_per_mb,omitempty"`
	// KillDataAfterBytes cuts one data connection each time the
	// forwarded data-byte count crosses another multiple of this budget
	// (0 = never), up to KillCount kills. This is the targeted fault the
	// protocol ≥3 re-plan path exists for.
	KillDataAfterBytes int64 `json:"kill_data_after_bytes,omitempty"`
	// KillCount bounds the kills (default 1 when KillDataAfterBytes > 0).
	KillCount int `json:"kill_count,omitempty"`
	// PartitionAfterBytes severs every connection — control plane
	// included — once total forwarded bytes cross it (0 = never).
	PartitionAfterBytes int64 `json:"partition_after_bytes,omitempty"`
	// PartitionMs is how long the partition holds before healing
	// (default 200 ms).
	PartitionMs int `json:"partition_ms,omitempty"`
}

// Clean reports whether the fault injects nothing.
func (f PeerFault) Clean() bool {
	return f.FlipPerMB == 0 && f.KillDataAfterBytes == 0 && f.PartitionAfterBytes == 0
}

// Peer is a live hostile middlebox sharing one state across a session's
// connections. It rides the same transfer.Config.WrapConn seam as Link;
// the kind passed to WrapConn ("ctrl" or "data") selects the role, so
// corruption and kills target the data plane while a partition takes
// down the control plane too.
type Peer struct {
	fault PeerFault
	now   func() time.Time

	mu          sync.Mutex
	rng         *rand.Rand
	dataBytes   int64
	totalBytes  int64
	kills       int
	flips       int64
	partitioned bool // partition triggered (stays true after heal)
	healAt      time.Time
	conns       map[*peerConn]struct{}
	injections  []time.Time // wall time of each kill/partition, for detection latency
}

// NewPeer builds a hostile peer drawing corruption offsets from a
// stream seeded with seed.
func NewPeer(f PeerFault, seed int64) *Peer {
	return &Peer{
		fault: f,
		now:   time.Now,
		rng:   rand.New(rand.NewSource(seed)),
		conns: make(map[*peerConn]struct{}),
	}
}

// Kills reports how many data connections the peer has cut (the
// partition is counted separately).
func (p *Peer) Kills() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.kills
}

// Flips reports how many bit flips the peer has injected.
func (p *Peer) Flips() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flips
}

// Injections returns the wall time of each kill/partition injected so
// far, for detection/recovery latency aggregates.
func (p *Peer) Injections() []time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]time.Time(nil), p.injections...)
}

// WrapConn wraps one dialed connection. kind is the transfer engine's
// connection role: "ctrl" or "data".
func (p *Peer) WrapConn(kind string, c net.Conn) net.Conn {
	if p == nil || p.fault.Clean() {
		return c
	}
	pc := &peerConn{Conn: c, peer: p, data: kind == "data"}
	p.mu.Lock()
	p.conns[pc] = struct{}{}
	p.mu.Unlock()
	return pc
}

// plan makes one write's decisions under the shared state: whether the
// session is (still) partitioned, whether to flip a bit (and where),
// and whether this write kills its connection. Connections to sever on
// partition entry are returned so the caller can close them outside the
// lock.
func (p *Peer) plan(c *peerConn, n int) (verdict peerVerdict, sever []*peerConn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := p.fault

	p.totalBytes += int64(n)
	if c.data {
		p.dataBytes += int64(n)
	}

	if f.PartitionAfterBytes > 0 && !p.partitioned && p.totalBytes >= f.PartitionAfterBytes {
		hold := time.Duration(f.PartitionMs) * time.Millisecond
		if hold <= 0 {
			hold = 200 * time.Millisecond
		}
		p.partitioned = true
		p.healAt = p.now().Add(hold)
		p.injections = append(p.injections, p.now())
		for pc := range p.conns {
			sever = append(sever, pc)
		}
		p.conns = make(map[*peerConn]struct{})
		verdict.blocked = true
		return verdict, sever
	}
	if p.partitioned && p.now().Before(p.healAt) {
		verdict.blocked = true
		return verdict, nil
	}

	if c.data {
		kc := f.KillCount
		if kc <= 0 {
			kc = 1
		}
		if f.KillDataAfterBytes > 0 && p.kills < kc &&
			p.dataBytes >= f.KillDataAfterBytes*int64(p.kills+1) {
			p.kills++
			p.injections = append(p.injections, p.now())
			verdict.kill = true
			verdict.killOff = p.rng.Intn(n)
			delete(p.conns, c)
			return verdict, nil
		}
		if f.FlipPerMB > 0 && p.rng.Float64() < f.FlipPerMB*float64(n)/(1<<20) {
			p.flips++
			verdict.flip = true
			verdict.flipBit = p.rng.Intn(n * 8)
		}
	}
	return verdict, nil
}

func (p *Peer) drop(c *peerConn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

type peerVerdict struct {
	blocked bool
	kill    bool
	killOff int
	flip    bool
	flipBit int
}

// peerConn is one connection through the Peer. Like linkConn it acts
// only on writes; unlike linkConn it is allowed to corrupt them.
type peerConn struct {
	net.Conn
	peer *Peer
	data bool

	mu   sync.Mutex
	dead bool
}

func (c *peerConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	if dead {
		return 0, ErrPeerKilled
	}
	if len(p) == 0 {
		return c.Conn.Write(p)
	}
	v, sever := c.peer.plan(c, len(p))
	if len(sever) > 0 {
		for _, pc := range sever {
			pc.kill()
		}
		return 0, ErrPeerPartitioned
	}
	if v.blocked {
		c.kill()
		return 0, ErrPeerPartitioned
	}
	if v.kill {
		n, _ := c.Conn.Write(p[:v.killOff])
		c.kill()
		return n, ErrPeerKilled
	}
	if v.flip {
		buf := make([]byte, len(p))
		copy(buf, p)
		buf[v.flipBit/8] ^= 1 << (v.flipBit % 8)
		return c.Conn.Write(buf)
	}
	return c.Conn.Write(p)
}

// kill marks the connection dead and closes the underlying socket.
func (c *peerConn) kill() {
	c.mu.Lock()
	already := c.dead
	c.dead = true
	c.mu.Unlock()
	if !already {
		c.Conn.Close()
	}
}

func (c *peerConn) Close() error {
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
	c.peer.drop(c)
	return c.Conn.Close()
}
