package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"automdt/internal/rate"
)

// ErrLinkDown marks a write that failed because the Markov link killed
// the connection carrying it. The transfer engine treats it like any
// other connection death: retire the socket, re-plan its chunks.
var ErrLinkDown = errors.New("chaos: link dropped connection (injected)")

// LinkState is one regime of a Markov-modulated link.
type LinkState struct {
	Name string `json:"name"`
	// BandwidthMbps caps the aggregate rate forwarded across every
	// connection sharing the link while this state holds (0 = unshaped).
	BandwidthMbps float64 `json:"bandwidth_mbps,omitempty"`
	// JitterMs is the mean of the exponentially-distributed extra delay
	// added to each write (0 = none).
	JitterMs float64 `json:"jitter_ms,omitempty"`
	// DropPerMB is the probability, per megabyte forwarded, that the
	// connection carrying the write is killed outright. Whole-connection
	// loss is the only loss the wrapper injects — bytes it does deliver
	// are never altered.
	DropPerMB float64 `json:"drop_per_mb,omitempty"`
}

// LinkModel is a declarative Markov-modulated link: named impairment
// states and a transition matrix walked on a fixed cadence, the standard
// formalism for channels whose impairment regime drifts over time.
type LinkModel struct {
	Name   string      `json:"name"`
	States []LinkState `json:"states"`
	// Trans[i][j] is the probability of stepping from state i to state
	// j; each row must sum to 1 (±1e-6). Omitted with a single state.
	Trans [][]float64 `json:"trans,omitempty"`
	// StepMs is the state-advance cadence (default 100 ms).
	StepMs int `json:"step_ms,omitempty"`
}

// Clean reports whether the model injects nothing (no states).
func (m LinkModel) Clean() bool { return len(m.States) == 0 }

// Validate checks the state/transition geometry.
func (m LinkModel) Validate() error {
	if m.Clean() {
		return nil
	}
	if len(m.States) > 1 || m.Trans != nil {
		if len(m.Trans) != len(m.States) {
			return fmt.Errorf("chaos: link %q has %d states but %d transition rows",
				m.Name, len(m.States), len(m.Trans))
		}
		for i, row := range m.Trans {
			if len(row) != len(m.States) {
				return fmt.Errorf("chaos: link %q transition row %d has %d entries, want %d",
					m.Name, i, len(row), len(m.States))
			}
			sum := 0.0
			for _, p := range row {
				if p < 0 {
					return fmt.Errorf("chaos: link %q transition row %d has a negative probability", m.Name, i)
				}
				sum += p
			}
			if sum < 1-1e-6 || sum > 1+1e-6 {
				return fmt.Errorf("chaos: link %q transition row %d sums to %g, want 1", m.Name, i, sum)
			}
		}
	}
	return nil
}

// Link is a live Markov-modulated link shared by every connection of a
// session: one state walk, one aggregate bandwidth bucket. Wrap each
// dialed connection with WrapConn (transfer.Config.WrapConn is the
// seam). Safe for concurrent use.
type Link struct {
	model LinkModel
	step  time.Duration
	lim   *rate.Limiter

	// now and sleep are injectable so tests and the fuzz harness can run
	// the state walk and jitter without wall-clock delays.
	now   func() time.Time
	sleep func(time.Duration)

	mu       sync.Mutex
	rng      *rand.Rand
	state    int
	lastStep time.Time
	kills    int64
}

// NewLink starts a link at the model's first state, drawing every
// decision (state walk, jitter, drops) from a stream seeded with seed.
func NewLink(m LinkModel, seed int64) (*Link, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	step := time.Duration(m.StepMs) * time.Millisecond
	if step <= 0 {
		step = 100 * time.Millisecond
	}
	l := &Link{
		model: m,
		step:  step,
		lim:   rate.Unlimited(),
		now:   time.Now,
		sleep: time.Sleep,
		rng:   rand.New(rand.NewSource(seed)),
	}
	l.lastStep = l.now()
	if !m.Clean() {
		l.applyState(0)
	}
	return l, nil
}

// SetClock replaces the link's time sources (tests and fuzzing only).
func (l *Link) SetClock(now func() time.Time, sleep func(time.Duration)) {
	l.mu.Lock()
	l.now = now
	l.sleep = sleep
	l.lastStep = now()
	l.mu.Unlock()
}

// Kills reports how many connections the link has dropped so far.
func (l *Link) Kills() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.kills
}

// applyState points the shared bandwidth bucket at state i's cap. Burst
// is 20 ms of tokens so a downshifted state throttles promptly. Caller
// holds mu (or is the constructor).
func (l *Link) applyState(i int) {
	l.state = i
	bps := l.model.States[i].BandwidthMbps * 1e6 / 8
	l.lim.SetRateBurst(bps, bps*0.02)
}

// advance walks the transition matrix for every step elapsed since the
// last walk. Caller holds mu.
func (l *Link) advance() {
	if l.model.Clean() || len(l.model.Trans) == 0 {
		return
	}
	now := l.now()
	for !l.lastStep.Add(l.step).After(now) {
		l.lastStep = l.lastStep.Add(l.step)
		roll, acc := l.rng.Float64(), 0.0
		next := l.state
		for j, p := range l.model.Trans[l.state] {
			acc += p
			if roll < acc {
				next = j
				break
			}
		}
		if next != l.state {
			l.applyState(next)
		}
	}
}

// plan makes one write's fault decisions under the current state:
// jitter to add, and whether (and after how many forwarded bytes) to
// kill the connection.
func (l *Link) plan(n int) (delay time.Duration, kill bool, killOff int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.model.Clean() {
		return 0, false, 0
	}
	l.advance()
	st := l.model.States[l.state]
	if st.JitterMs > 0 {
		delay = time.Duration(l.rng.ExpFloat64() * st.JitterMs * float64(time.Millisecond))
	}
	if st.DropPerMB > 0 && l.rng.Float64() < st.DropPerMB*float64(n)/(1<<20) {
		kill, killOff = true, l.rng.Intn(n)
		l.kills++
	}
	return delay, kill, killOff
}

// WrapConn wraps a dialed connection with the link's impairments. Only
// writes are shaped: on loopback the data volume flows through the
// sender's writes, and leaving reads untouched keeps the wrapper
// byte-transparent in both directions.
func (l *Link) WrapConn(c net.Conn) net.Conn {
	if l == nil || l.model.Clean() {
		return c
	}
	return &linkConn{Conn: c, link: l}
}

// linkConn is one connection riding a Link. It delays or kills; it
// never alters, reorders, or duplicates the bytes it forwards
// (FuzzChaosConn enforces exactly this).
type linkConn struct {
	net.Conn
	link *Link

	mu   sync.Mutex
	dead bool
}

func (c *linkConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	if dead {
		return 0, ErrLinkDown
	}
	if len(p) == 0 {
		return c.Conn.Write(p)
	}
	delay, kill, killOff := c.link.plan(len(p))
	if delay > 0 {
		c.link.sleep(delay)
	}
	// The shared bucket paces the aggregate link; Background is safe
	// because the wait is bounded by the state's rate and the engine
	// closes the underlying conn on cancellation, failing the next write.
	if err := c.link.lim.WaitN(context.Background(), len(p)); err != nil {
		return 0, err
	}
	if kill {
		n, _ := c.Conn.Write(p[:killOff])
		c.mu.Lock()
		c.dead = true
		c.mu.Unlock()
		c.Conn.Close()
		return n, ErrLinkDown
	}
	return c.Conn.Write(p)
}

func (c *linkConn) Close() error {
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
	return c.Conn.Close()
}
