package fleet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"sync"
)

// ErrNoEndpoints is returned by placement when the ring has no members.
var ErrNoEndpoints = errors.New("fleet: no live endpoints")

const (
	// DefaultReplicas is the virtual-node count each endpoint projects
	// onto the ring. More replicas smooth the balance (deviation shrinks
	// roughly with 1/√replicas) at the cost of a larger sorted point set.
	DefaultReplicas = 128
	// DefaultLoadFactor is the bounded-load factor c: placement skips an
	// endpoint whose session load has reached ⌈c·(total+1)/n⌉. 1.25 keeps
	// the worst endpoint within 25% of the mean while preserving most of
	// plain consistent hashing's remap minimality.
	DefaultLoadFactor = 1.25
)

// Ring is a consistent-hash placement ring with bounded loads (the
// "consistent hashing with bounded loads" construction): sessions map to
// the first endpoint clockwise of their hash whose current load is below
// the bound. With all loads equal (or untracked) it degenerates to plain
// consistent hashing, which is what makes membership changes remap only
// ≈1/n of the keys. Safe for concurrent use.
type Ring struct {
	replicas int
	c        float64

	mu     sync.RWMutex
	points []ringPoint // sorted by hash
	load   map[string]int
	total  int
}

type ringPoint struct {
	hash uint64
	id   string
}

// NewRing creates an empty ring. replicas ≤ 0 and c < 1 take the
// defaults.
func NewRing(replicas int, c float64) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	if c < 1 {
		c = DefaultLoadFactor
	}
	return &Ring{replicas: replicas, c: c, load: make(map[string]int)}
}

// hashKey maps a string onto the ring's 64-bit hash space. Raw FNV-1a
// mixes too weakly for the short, near-identical vnode strings
// ("ep-3#41" vs "ep-3#42") — adjacent inputs land on clustered ring
// positions and the balance collapses — so the digest is pushed through
// a murmur3-style 64-bit finalizer for full avalanche.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s) //nolint:errcheck
	return fmix64(h.Sum64())
}

func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts an endpoint (idempotent). Its virtual nodes derive from
// the endpoint id alone, so the same membership set always yields the
// same ring regardless of insertion order.
func (r *Ring) Add(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.load[id]; ok {
		return
	}
	r.load[id] = 0
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("%s#%d", id, i)), id: id})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes an endpoint and its virtual nodes. Sessions it was
// carrying stop counting toward the ring's total load (their Release
// becomes a no-op).
func (r *Ring) Remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	carried, ok := r.load[id]
	if !ok {
		return
	}
	r.total -= carried
	delete(r.load, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.id != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Loads returns a copy of the per-endpoint session loads.
func (r *Ring) Loads() map[string]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int, len(r.load))
	for id, n := range r.load {
		out[id] = n
	}
	return out
}

// placeLocked walks the ring from the key's hash and returns the first
// endpoint under the load bound. Caller holds mu (read or write).
func (r *Ring) placeLocked(key string) (string, error) {
	n := len(r.load)
	if n == 0 {
		return "", ErrNoEndpoints
	}
	limit := int(math.Ceil(r.c * float64(r.total+1) / float64(n)))
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	var first string
	for k := 0; k < len(r.points); k++ {
		p := r.points[(start+k)%len(r.points)]
		if first == "" {
			first = p.id
		}
		if r.load[p.id] < limit {
			return p.id, nil
		}
	}
	// Unreachable while c ≥ 1 (if every endpoint were at the limit the
	// total would exceed itself), kept as a defensive fallback.
	return first, nil
}

// Acquire places the key and counts one session against the chosen
// endpoint's load until Release. The load is what the bounded-load walk
// consults, so concurrent sessions spread instead of herding onto one
// hot endpoint.
func (r *Ring) Acquire(key string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, err := r.placeLocked(key)
	if err != nil {
		return "", err
	}
	r.load[id]++
	r.total++
	return id, nil
}

// Release returns one session slot to the endpoint. Releasing an
// endpoint that has left the ring (or has no outstanding load) is a
// no-op.
func (r *Ring) Release(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n, ok := r.load[id]; ok && n > 0 {
		r.load[id]--
		r.total--
	}
}
