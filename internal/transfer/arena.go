package transfer

import (
	"fmt"
	"sync"
	"sync/atomic"

	"automdt/internal/metrics"
)

// Arena is a size-classed, capacity-bounded pool of reference-counted
// buffers — the single allocation point of the transfer hot path. A chunk
// buffer is acquired once when the read stage pulls data from the source
// store (or when the receiver pulls a frame off the wire), handed through
// the staging buffer by ownership transfer, and released back here only
// after the frame hits the wire (sender side) or the disk write commits
// (receiver side). Steady-state transfers therefore run with zero
// per-chunk allocations.
//
// The capacity bound is soft: when the arena footprint (leased + pooled
// bytes) would exceed the configured capacity, Get still succeeds — a
// transfer must never deadlock on pool pressure — but hands out an
// untracked buffer that is garbage-collected on release instead of being
// retained. Shrinking the capacity below the current footprint likewise
// sheds buffers lazily as they are released. Under concurrent Get the
// footprint can transiently overshoot by at most one class size per
// caller; occupancy gauges are for observability, not hard accounting.
type Arena struct {
	capBytes atomic.Int64

	// inUse counts bytes of pooled-class buffers currently leased out;
	// pooled counts bytes sitting in free lists. Footprint = inUse+pooled.
	inUse  atomic.Int64
	pooled atomic.Int64

	// hits: Get served from a free list. misses: Get allocated a new
	// tracked buffer. overflow: Get handed out an untracked buffer
	// (capacity pressure or oversize request).
	hits, misses, overflow atomic.Int64

	classes []arenaClass
}

// arenaClass is one size class: a LIFO free list of released buffers.
type arenaClass struct {
	size int64
	mu   sync.Mutex
	free []*Buf
}

// arenaClassSizes are the per-class buffer sizes, ascending. The ladder
// covers the tail chunks of any ChunkBytes setting up to wire.MaxChunk:
// a 256 KiB chunk pipeline with a 9 KiB tail leases from the 16 KiB
// class instead of allocating, which is exactly the tail-chunk leak the
// old per-stage sync.Pool had.
var arenaClassSizes = []int64{
	4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20,
}

// DefaultArenaBytes is the capacity of the process-wide default arena:
// enough for the default 64 MiB sender + 64 MiB receiver staging of a
// couple of concurrent loopback transfers.
const DefaultArenaBytes = 512 << 20

var defaultArena = NewArena(DefaultArenaBytes)

// Default returns the process-wide arena used when Config.Arena is nil.
// Sharing one arena across transfers is what makes back-to-back runs
// (and the scheduler daemon's job churn) allocation-free after warmup.
func Default() *Arena { return defaultArena }

// NewArena creates an arena bounded to capBytes of retained buffer
// memory.
func NewArena(capBytes int64) *Arena {
	a := &Arena{classes: make([]arenaClass, len(arenaClassSizes))}
	for i, s := range arenaClassSizes {
		a.classes[i].size = s
	}
	a.capBytes.Store(capBytes)
	return a
}

// classFor returns the index of the smallest class holding n bytes, or
// -1 when n exceeds the largest class.
func (a *Arena) classFor(n int) int {
	for i := range a.classes {
		if int64(n) <= a.classes[i].size {
			return i
		}
	}
	return -1
}

// Get leases a buffer of length n with reference count 1. It never
// blocks and never fails; over capacity it falls back to an untracked
// allocation.
func (a *Arena) Get(n int) *Buf {
	ci := a.classFor(n)
	if ci < 0 {
		a.overflow.Add(1)
		b := &Buf{full: make([]byte, n), n: n}
		b.refs.Store(1)
		return b
	}
	c := &a.classes[ci]
	c.mu.Lock()
	var b *Buf
	if last := len(c.free) - 1; last >= 0 {
		b = c.free[last]
		c.free[last] = nil
		c.free = c.free[:last]
	}
	c.mu.Unlock()
	if b != nil {
		a.hits.Add(1)
		a.pooled.Add(-c.size)
		a.inUse.Add(c.size)
		b.n = n
		b.refs.Store(1)
		return b
	}
	if a.inUse.Load()+a.pooled.Load()+c.size > a.capBytes.Load() {
		a.overflow.Add(1)
		b := &Buf{full: make([]byte, c.size), n: n}
		b.refs.Store(1)
		return b
	}
	a.misses.Add(1)
	a.inUse.Add(c.size)
	b = &Buf{arena: a, class: ci, full: make([]byte, c.size), n: n}
	b.refs.Store(1)
	return b
}

// put returns a fully released tracked buffer to its free list, or drops
// it when the arena is over capacity (lazy shed after a SetCapacity
// shrink).
func (a *Arena) put(b *Buf) {
	c := &a.classes[b.class]
	a.inUse.Add(-c.size)
	if a.inUse.Load()+a.pooled.Load()+c.size > a.capBytes.Load() {
		return // shed: let the GC reclaim it
	}
	a.pooled.Add(c.size)
	c.mu.Lock()
	c.free = append(c.free, b)
	c.mu.Unlock()
}

// SetCapacity rebounds the retained-memory budget. The scheduler calls
// this on every rebalance so arena memory follows the admitted job set.
// Shrinking does not free pooled buffers eagerly; they are shed as they
// cycle through Release.
func (a *Arena) SetCapacity(capBytes int64) {
	if capBytes < 0 {
		capBytes = 0
	}
	a.capBytes.Store(capBytes)
}

// Capacity returns the current retained-memory bound.
func (a *Arena) Capacity() int64 { return a.capBytes.Load() }

// ArenaStats is a point-in-time occupancy snapshot.
type ArenaStats struct {
	CapBytes    int64
	InUseBytes  int64
	PooledBytes int64
	Hits        int64
	Misses      int64
	Overflow    int64
}

// Stats snapshots the arena's occupancy and traffic counters.
func (a *Arena) Stats() ArenaStats {
	return ArenaStats{
		CapBytes:    a.capBytes.Load(),
		InUseBytes:  a.inUse.Load(),
		PooledBytes: a.pooled.Load(),
		Hits:        a.hits.Load(),
		Misses:      a.misses.Load(),
		Overflow:    a.overflow.Load(),
	}
}

// Snapshot exports the arena occupancy in the shared metrics text format
// (the daemon merges this into its /metrics page).
func (a *Arena) Snapshot() metrics.Snapshot {
	st := a.Stats()
	var snap metrics.Snapshot
	snap.Add("automdt_arena_capacity_bytes", float64(st.CapBytes))
	snap.Add("automdt_arena_bytes", float64(st.InUseBytes), metrics.L("state", "in_use"))
	snap.Add("automdt_arena_bytes", float64(st.PooledBytes), metrics.L("state", "pooled"))
	snap.Add("automdt_arena_gets_total", float64(st.Hits), metrics.L("kind", "hit"))
	snap.Add("automdt_arena_gets_total", float64(st.Misses), metrics.L("kind", "miss"))
	snap.Add("automdt_arena_gets_total", float64(st.Overflow), metrics.L("kind", "overflow"))
	return snap
}

// Buf is a buffer leased from an Arena. Its holder returns it to the
// arena with Release; the reference count catches a second Release.
// An untracked Buf (over-capacity or oversize) has a nil arena and is
// simply dropped to the GC on final release.
type Buf struct {
	arena *Arena
	class int
	full  []byte
	n     int
	refs  atomic.Int32
}

// Bytes returns the leased payload slice. The slice must not be used
// after the final Release.
func (b *Buf) Bytes() []byte { return b.full[:b.n] }

// Release drops one reference, returning the buffer to its arena when
// the count reaches zero. Releasing below zero panics: it means two
// stages both thought they owned the chunk.
func (b *Buf) Release() {
	switch r := b.refs.Add(-1); {
	case r == 0:
		if b.arena != nil {
			b.arena.put(b)
		}
	case r < 0:
		panic(fmt.Sprintf("transfer: Buf over-released (refs=%d)", r))
	}
}
