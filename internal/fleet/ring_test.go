package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// ringSeed fixes the key population so the property tests are
// reproducible runs of the same placement instance, not flaky samples.
const ringSeed = 47

func genKeys(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("sess-%d-%x", i, rng.Uint64())
	}
	return keys
}

func epID(i int) string { return fmt.Sprintf("ep-%d", i) }

// place is where key would go, without taking a load slot.
func place(r *Ring, key string) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.placeLocked(key)
}

func buildRing(n int) *Ring {
	r := NewRing(0, 0)
	for i := 0; i < n; i++ {
		r.Add(epID(i))
	}
	return r
}

// TestRingBalance places a large key population on fleets of 3–16
// endpoints and asserts every endpoint's share stays within tolerance of
// the mean. With 128 virtual nodes per endpoint the arc-length variance
// keeps plain consistent hashing within roughly ±30% of fair; the
// tolerance band below is deliberately wider than that but far tighter
// than the pathological single-hash-per-endpoint ring.
func TestRingBalance(t *testing.T) {
	const keysN = 20000
	keys := genKeys(ringSeed, keysN)
	for _, n := range []int{3, 4, 8, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := buildRing(n)
			counts := make(map[string]int, n)
			for _, k := range keys {
				id, err := place(r, k)
				if err != nil {
					t.Fatalf("Place(%q): %v", k, err)
				}
				counts[id]++
			}
			mean := float64(keysN) / float64(n)
			for i := 0; i < n; i++ {
				c := counts[epID(i)]
				ratio := float64(c) / mean
				if ratio < 0.55 || ratio > 1.55 {
					t.Errorf("endpoint %s holds %d keys (%.2f× mean %.0f), outside [0.55, 1.55]",
						epID(i), c, ratio, mean)
				}
			}
		})
	}
}

// TestRingRemapOnMembershipChange asserts the consistency property: when
// an endpoint joins, at most ≈1/(n+1)+ε of keys move and every mover
// lands on the newcomer; when an endpoint leaves, at most ≈1/n+ε move
// and every mover originates from the departed endpoint. Keys untouched
// by the change must not move at all — that is what makes a fleet-wide
// membership event cheap.
func TestRingRemapOnMembershipChange(t *testing.T) {
	const keysN = 20000
	const eps = 0.05
	keys := genKeys(ringSeed+1, keysN)
	for _, n := range []int{3, 4, 8, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := buildRing(n)
			before := make(map[string]string, keysN)
			for _, k := range keys {
				id, _ := place(r, k)
				before[k] = id
			}

			// Join: ep-new enters; movers must all move to it.
			r.Add("ep-new")
			moved := 0
			for _, k := range keys {
				id, _ := place(r, k)
				if id != before[k] {
					moved++
					if id != "ep-new" {
						t.Fatalf("join: key %q moved %s→%s, not to the joining endpoint", k, before[k], id)
					}
				}
			}
			maxFrac := 1.0/float64(n+1) + eps
			if frac := float64(moved) / keysN; frac > maxFrac {
				t.Errorf("join: %.3f of keys remapped, want ≤ %.3f", frac, maxFrac)
			}
			r.Remove("ep-new")

			// Leave: ep-0 departs; movers must all originate from it.
			r.Remove(epID(0))
			moved = 0
			for _, k := range keys {
				id, _ := place(r, k)
				if id != before[k] {
					moved++
					if before[k] != epID(0) {
						t.Fatalf("leave: key %q moved %s→%s but its endpoint did not leave", k, before[k], id)
					}
				}
			}
			maxFrac = 1.0/float64(n) + eps
			if frac := float64(moved) / keysN; frac > maxFrac {
				t.Errorf("leave: %.3f of keys remapped, want ≤ %.3f", frac, maxFrac)
			}
		})
	}
}

// TestRingBoundedLoad acquires a session slot per key and asserts no
// endpoint ends above the bounded-load limit ⌈c·K/n⌉ — the guarantee
// that placement cannot herd sessions onto one hot endpoint even when
// the hash distribution would.
func TestRingBoundedLoad(t *testing.T) {
	const keysN = 2000
	keys := genKeys(ringSeed+2, keysN)
	for _, n := range []int{3, 8, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := buildRing(n)
			for _, k := range keys {
				if _, err := r.Acquire(k); err != nil {
					t.Fatalf("Acquire(%q): %v", k, err)
				}
			}
			limit := int(math.Ceil(DefaultLoadFactor * float64(keysN) / float64(n)))
			total := 0
			for id, load := range r.Loads() {
				total += load
				if load > limit {
					t.Errorf("endpoint %s carries %d sessions, above bounded-load limit %d", id, load, limit)
				}
			}
			if total != keysN {
				t.Fatalf("total load %d, want %d", total, keysN)
			}
		})
	}
}

// TestRingReleaseAndEmpty covers the bookkeeping edges: release returns
// capacity, releasing a departed or idle endpoint is a no-op, and an
// empty ring refuses placement.
func TestRingReleaseAndEmpty(t *testing.T) {
	r := NewRing(8, 1.25)
	if _, err := place(r, "sess"); err != ErrNoEndpoints {
		t.Fatalf("empty ring Place err = %v, want ErrNoEndpoints", err)
	}
	r.Add("a")
	r.Add("a") // idempotent
	if got := len(r.Loads()); got != 1 {
		t.Fatalf("Loads() after duplicate Add = %d, want 1", got)
	}
	id, err := r.Acquire("sess")
	if err != nil || id != "a" {
		t.Fatalf("Acquire = %q, %v", id, err)
	}
	r.Release("a")
	r.Release("a") // idle: no-op
	if r.Loads()["a"] != 0 {
		t.Fatalf("load after over-release = %d, want 0", r.Loads()["a"])
	}
	r.Remove("a")
	r.Release("a") // departed: no-op
	if _, err := place(r, "sess"); err != ErrNoEndpoints {
		t.Fatalf("Place after Remove err = %v, want ErrNoEndpoints", err)
	}
}

// TestRingPlacementDeterministic asserts the ring is a pure function of
// its membership set: insertion order must not matter, or failover
// re-placement on different daemons would disagree.
func TestRingPlacementDeterministic(t *testing.T) {
	keys := genKeys(ringSeed+3, 500)
	a := NewRing(0, 0)
	b := NewRing(0, 0)
	for i := 0; i < 5; i++ {
		a.Add(epID(i))
	}
	for i := 4; i >= 0; i-- {
		b.Add(epID(i))
	}
	for _, k := range keys {
		pa, _ := place(a, k)
		pb, _ := place(b, k)
		if pa != pb {
			t.Fatalf("placement differs by insertion order for %q: %s vs %s", k, pa, pb)
		}
	}
}
