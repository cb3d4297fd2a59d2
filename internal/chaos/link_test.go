package chaos

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when told to, so link tests never sleep.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestLinkModelValidate(t *testing.T) {
	ok := LinkModel{Name: "two", States: []LinkState{{Name: "a"}, {Name: "b"}},
		Trans: [][]float64{{0.5, 0.5}, {1, 0}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	if err := (LinkModel{}).Validate(); err != nil {
		t.Fatalf("clean model rejected: %v", err)
	}
	bad := []LinkModel{
		{States: []LinkState{{}, {}}, Trans: [][]float64{{1, 0}}},             // wrong row count
		{States: []LinkState{{}, {}}, Trans: [][]float64{{1}, {0, 1}}},        // ragged row
		{States: []LinkState{{}, {}}, Trans: [][]float64{{2, -1}, {0, 1}}},    // negative
		{States: []LinkState{{}, {}}, Trans: [][]float64{{0.5, 0.4}, {0, 1}}}, // row sum != 1
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestLinkCleanPassthrough(t *testing.T) {
	l, err := NewLink(LinkModel{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if got := l.WrapConn(c1); got != c1 {
		t.Fatal("clean link did not return the conn unchanged")
	}
	var nilLink *Link
	if got := nilLink.WrapConn(c1); got != c1 {
		t.Fatal("nil link did not return the conn unchanged")
	}
}

func TestLinkDeterministicDecisions(t *testing.T) {
	m := LinkModel{
		Name: "lossy",
		States: []LinkState{
			{Name: "good", JitterMs: 1, DropPerMB: 2},
			{Name: "bad", JitterMs: 10, DropPerMB: 50},
		},
		Trans: [][]float64{{0.7, 0.3}, {0.4, 0.6}},
	}
	mk := func() *Link {
		l, err := NewLink(m, 42)
		if err != nil {
			t.Fatal(err)
		}
		clk := &fakeClock{t: time.Unix(0, 0)}
		l.SetClock(clk.now, func(time.Duration) {})
		return l
	}
	a, b := mk(), mk()
	for i := 0; i < 500; i++ {
		da, ka, oa := a.plan(64 << 10)
		db, kb, ob := b.plan(64 << 10)
		if da != db || ka != kb || oa != ob {
			t.Fatalf("plan %d diverged: (%v %v %v) vs (%v %v %v)", i, da, ka, oa, db, kb, ob)
		}
	}
}

// stateName walks l up to its clock's now and names the state it is in.
func stateName(l *Link) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.advance()
	return l.model.States[l.state].Name
}

func TestLinkStateWalk(t *testing.T) {
	m := LinkModel{
		Name: "pingpong",
		States: []LinkState{
			{Name: "a", BandwidthMbps: 80},
			{Name: "b", BandwidthMbps: 8},
		},
		// Deterministic alternation: every step flips state.
		Trans:  [][]float64{{0, 1}, {1, 0}},
		StepMs: 100,
	}
	l, err := NewLink(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{t: time.Unix(0, 0)}
	l.SetClock(clk.now, func(time.Duration) {})
	if got := stateName(l); got != "a" {
		t.Fatalf("initial state %q, want a", got)
	}
	clk.advance(100 * time.Millisecond)
	if got := stateName(l); got != "b" {
		t.Fatalf("after one step state %q, want b", got)
	}
	// State b's bucket is 1e6 B/s with 20 ms of burst, so 40 kB must wait
	// at least the 20 ms the burst does not cover.
	start := time.Now()
	if err := l.lim.WaitN(context.Background(), 40_000); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("state b let 40 kB through in %v; its 8 Mbps bucket needs ≥ 20 ms", d)
	}
	clk.advance(300 * time.Millisecond) // three more steps: b->a->b->a
	if got := stateName(l); got != "a" {
		t.Fatalf("after four steps state %q, want a", got)
	}
}

// pipeSink reads everything c2 delivers into a buffer.
type pipeSink struct {
	buf  bytes.Buffer
	done chan struct{}
}

func drain(c net.Conn) *pipeSink {
	s := &pipeSink{done: make(chan struct{})}
	go func() {
		defer close(s.done)
		io.Copy(&s.buf, c) //nolint:errcheck
	}()
	return s
}

func TestLinkKillDeliversExactPrefix(t *testing.T) {
	m := LinkModel{
		Name:   "killer",
		States: []LinkState{{Name: "deadly", DropPerMB: 1 << 20}}, // certain kill per byte
	}
	l, err := NewLink(m, 7)
	if err != nil {
		t.Fatal(err)
	}
	l.SetClock((&fakeClock{t: time.Unix(0, 0)}).now, func(time.Duration) {})
	c1, c2 := net.Pipe()
	w := l.WrapConn(c1)
	sink := drain(c2)

	msg := make([]byte, 4096)
	for i := range msg {
		msg[i] = byte(i)
	}
	n, werr := w.Write(msg)
	if !errors.Is(werr, ErrLinkDown) {
		t.Fatalf("write under certain kill: n=%d err=%v, want ErrLinkDown", n, werr)
	}
	if n >= len(msg) {
		t.Fatalf("killed write reported full delivery (%d)", n)
	}
	<-sink.done // wrapper closed the conn on kill
	if got := sink.buf.Bytes(); !bytes.Equal(got, msg[:n]) {
		t.Fatalf("delivered %d bytes, not the exact reported prefix of %d", len(got), n)
	}
	if _, err := w.Write(msg); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("write after kill: %v, want ErrLinkDown", err)
	}
	if l.Kills() != 1 {
		t.Fatalf("Kills() = %d, want 1", l.Kills())
	}
}
