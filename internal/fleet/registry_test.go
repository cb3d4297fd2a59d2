package fleet

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for TTL tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestRegistry(ttl time.Duration) (*Registry, *fakeClock) {
	g := NewRegistry(ttl)
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	g.now = clk.now
	return g, clk
}

func liveIDs(g *Registry) []string {
	infos := g.Live()
	ids := make([]string, len(infos))
	for i, in := range infos {
		ids[i] = in.ID
	}
	return ids
}

func TestRegistryLivenessLifecycle(t *testing.T) {
	g, clk := newTestRegistry(time.Second)

	if err := g.Register(EndpointInfo{ID: "ep-0", DataAddr: "d0", CtrlAddr: "c0"}); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(EndpointInfo{ID: "ep-1", DataAddr: "d1", CtrlAddr: "c1"}); err != nil {
		t.Fatal(err)
	}
	if got := liveIDs(g); strings.Join(got, ",") != "ep-0,ep-1" {
		t.Fatalf("live after register = %v", got)
	}

	// Within TTL: heartbeats keep both live.
	clk.advance(600 * time.Millisecond)
	if err := g.Heartbeat("ep-0"); err != nil {
		t.Fatal(err)
	}
	clk.advance(600 * time.Millisecond)
	// ep-1's last beat (register) is now 1.2s old → dead; ep-0 still live.
	if got := liveIDs(g); strings.Join(got, ",") != "ep-0" {
		t.Fatalf("live after ep-1 TTL lapse = %v", got)
	}

	// Revive on heartbeat without re-registering.
	if err := g.Heartbeat("ep-1"); err != nil {
		t.Fatalf("heartbeat from dead-but-registered endpoint: %v", err)
	}
	if got := liveIDs(g); strings.Join(got, ",") != "ep-0,ep-1" {
		t.Fatalf("live after revival = %v", got)
	}

	// Re-registering replaces the endpoint's addresses.
	if err := g.Register(EndpointInfo{ID: "ep-1", DataAddr: "d1b", CtrlAddr: "c1b"}); err != nil {
		t.Fatal(err)
	}
	if live := g.Live(); len(live) != 2 || live[1].DataAddr != "d1b" {
		t.Fatalf("live after re-register = %+v", live)
	}
}

// TestRegistryEpochBumpsOnTransitions: every liveness transition —
// register, TTL death, revival — shows in Live, and a heartbeat from a
// live endpoint changes nothing.
func TestRegistryEpochBumpsOnTransitions(t *testing.T) {
	g, clk := newTestRegistry(time.Second)
	if got := liveIDs(g); len(got) != 0 {
		t.Fatalf("live before register = %v", got)
	}
	g.Register(EndpointInfo{ID: "ep-0"})
	if got := strings.Join(liveIDs(g), ","); got != "ep-0" {
		t.Fatalf("live after register = %s", got)
	}
	clk.advance(300 * time.Millisecond)
	g.Heartbeat("ep-0")
	if got := strings.Join(liveIDs(g), ","); got != "ep-0" {
		t.Fatalf("live after heartbeat = %s", got)
	}
	clk.advance(2 * time.Second)
	if got := liveIDs(g); len(got) != 0 {
		t.Fatalf("live after TTL death = %v", got)
	}
	g.Heartbeat("ep-0")
	if got := strings.Join(liveIDs(g), ","); got != "ep-0" {
		t.Fatalf("live after revival = %s", got)
	}
}

func TestRegistryValidationAndSnapshot(t *testing.T) {
	g, clk := newTestRegistry(time.Second)
	if err := g.Register(EndpointInfo{}); err == nil {
		t.Fatal("Register with empty ID succeeded")
	}
	if err := g.Heartbeat("ghost"); !errors.Is(err, ErrUnknownEndpoint) {
		t.Fatalf("unknown heartbeat err = %v", err)
	}

	g.Register(EndpointInfo{ID: "ep-0"})
	g.Register(EndpointInfo{ID: "ep-1"})
	clk.advance(500 * time.Millisecond)
	g.Heartbeat("ep-0")
	clk.advance(700 * time.Millisecond) // ep-1 lapses
	if got := strings.Join(liveIDs(g), ","); got != "ep-0" {
		t.Fatalf("live after ep-1 lapsed = %s", got)
	}
	// A lapsed endpoint stays registered: its heartbeat is accepted.
	if err := g.Heartbeat("ep-1"); err != nil {
		t.Fatalf("heartbeat from lapsed endpoint: %v", err)
	}
}

func TestRegistryDefaultTTL(t *testing.T) {
	g, clk := newTestRegistry(0)
	g.Register(EndpointInfo{ID: "ep-0"})
	clk.advance(DefaultTTL)
	if got := liveIDs(g); len(got) != 1 {
		t.Fatalf("live at the default TTL = %v", got)
	}
	clk.advance(time.Millisecond)
	if got := liveIDs(g); len(got) != 0 {
		t.Fatalf("live past the default TTL = %v", got)
	}
}
