package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// DefaultTTL is the heartbeat liveness horizon when a Registry is built
// with a non-positive TTL.
const DefaultTTL = 3 * time.Second

// ErrUnknownEndpoint is returned by Heartbeat for an id that never
// registered; the endpoint must Register first.
var ErrUnknownEndpoint = errors.New("fleet: unknown endpoint")

// EndpointInfo is what an endpoint publishes when it registers.
type EndpointInfo struct {
	// ID names the endpoint; unique within the fleet.
	ID string `json:"id"`
	// Addr is the receiver's listener address.
	Addr string `json:"addr"`
}

// member is the registry's record of one endpoint.
type member struct {
	info     EndpointInfo
	lastBeat time.Time
}

// Registry tracks fleet membership and heartbeat liveness.
//
// Liveness rules (see docs/FLEET.md):
//   - Register makes an endpoint live and counts as its first heartbeat.
//   - An endpoint stays live while its last heartbeat is within the TTL.
//   - When the TTL lapses the endpoint is dead; it stays registered, so
//     a later heartbeat revives it — a stalled-but-recovered endpoint
//     rejoins without re-registering.
//
// Safe for concurrent use.
type Registry struct {
	ttl time.Duration

	mu      sync.Mutex
	now     func() time.Time
	members map[string]*member
}

// NewRegistry builds a registry with the given heartbeat TTL (≤ 0 takes
// DefaultTTL).
func NewRegistry(ttl time.Duration) *Registry {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Registry{ttl: ttl, now: time.Now, members: make(map[string]*member)}
}

// Register adds (or re-adds) an endpoint as live, counting as its first
// heartbeat.
func (g *Registry) Register(info EndpointInfo) error {
	if info.ID == "" {
		return errors.New("fleet: endpoint id must be non-empty")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.members[info.ID] = &member{info: info, lastBeat: g.now()}
	return nil
}

// Heartbeat records a liveness beat. A dead-but-registered endpoint
// revives; an unknown endpoint must Register first.
func (g *Registry) Heartbeat(id string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, ok := g.members[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEndpoint, id)
	}
	m.lastBeat = g.now()
	return nil
}

// Live returns the endpoints whose last heartbeat is within the TTL,
// sorted by ID.
func (g *Registry) Live() []EndpointInfo {
	g.mu.Lock()
	defer g.mu.Unlock()
	cutoff := g.now().Add(-g.ttl)
	out := make([]EndpointInfo, 0, len(g.members))
	for _, m := range g.members {
		if !m.lastBeat.Before(cutoff) {
			out = append(out, m.info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
