package transfer

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"automdt/internal/fsim"
	"automdt/internal/workload"
)

func TestArenaClassRounding(t *testing.T) {
	a := NewArena(64 << 20)
	cases := []struct {
		n    int
		want int64
	}{
		{1, 4 << 10},
		{4 << 10, 4 << 10},
		{4<<10 + 1, 16 << 10},
		{9 << 10, 16 << 10}, // a 9 KiB tail chunk leases the 16 KiB class
		{256 << 10, 256 << 10},
		{1 << 20, 1 << 20},
		{16 << 20, 16 << 20},
	}
	for _, c := range cases {
		b := a.Get(c.n)
		if b.Len() != c.n {
			t.Fatalf("Get(%d): Len=%d", c.n, b.Len())
		}
		if int64(cap(b.full)) != c.want {
			t.Fatalf("Get(%d): class size %d, want %d", c.n, cap(b.full), c.want)
		}
		b.Release()
	}
}

func TestArenaReuseAcrossSizesInClass(t *testing.T) {
	a := NewArena(64 << 20)
	b1 := a.Get(256 << 10)
	p1 := &b1.full[0]
	b1.Release()
	// A tail-sized request from the same class must reuse the buffer the
	// full-sized chunk just returned.
	b2 := a.Get(200 << 10)
	if &b2.full[0] != p1 {
		t.Fatal("tail-chunk Get did not reuse the pooled class buffer")
	}
	if st := a.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	b2.Release()
}

func TestArenaRefcount(t *testing.T) {
	a := NewArena(64 << 20)
	b := a.Get(1 << 10)
	b.Retain()
	b.Release()
	if st := a.Stats(); st.InUseBytes == 0 {
		t.Fatal("buffer returned to pool while a reference was live")
	}
	b.Release()
	if st := a.Stats(); st.InUseBytes != 0 || st.PooledBytes != 4<<10 {
		t.Fatalf("after final release: inUse=%d pooled=%d", st.InUseBytes, st.PooledBytes)
	}
}

func TestArenaOverReleasePanics(t *testing.T) {
	a := NewArena(64 << 20)
	b := a.Get(10)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	b.Release()
}

func TestArenaOversizeAndOverflowUntracked(t *testing.T) {
	a := NewArena(8 << 10) // tiny capacity
	big := a.Get(32 << 20) // beyond the largest class
	if big.arena != nil {
		t.Fatal("oversize buffer must be untracked")
	}
	big.Release()

	b1 := a.Get(4 << 10) // fills capacity (4 KiB class, 8 KiB cap)
	b2 := a.Get(8 << 10) // 16 KiB class would exceed cap → untracked
	if b2.arena != nil {
		t.Fatal("over-capacity Get must fall back to an untracked buffer")
	}
	st := a.Stats()
	if st.Overflow != 2 {
		t.Fatalf("overflow=%d, want 2", st.Overflow)
	}
	if st.InUseBytes != 4<<10 {
		t.Fatalf("inUse=%d, want %d", st.InUseBytes, 4<<10)
	}
	b1.Release()
	b2.Release()
}

func TestArenaSetCapacitySheds(t *testing.T) {
	a := NewArena(64 << 20)
	b := a.Get(1 << 20)
	a.SetCapacity(0)
	b.Release() // over the new bound: shed to GC, not pooled
	if st := a.Stats(); st.PooledBytes != 0 || st.InUseBytes != 0 {
		t.Fatalf("after shrink+release: inUse=%d pooled=%d, want 0/0", st.InUseBytes, st.PooledBytes)
	}
	a.SetCapacity(-5)
	if a.Capacity() != 0 {
		t.Fatalf("negative capacity not clamped: %d", a.Capacity())
	}
}

func TestArenaConcurrent(t *testing.T) {
	a := NewArena(4 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := a.Get(1 + (seed+i)%(300<<10))
				b.Bytes()[0] = byte(i)
				b.Release()
			}
		}(g * 37)
	}
	wg.Wait()
	if st := a.Stats(); st.InUseBytes != 0 {
		t.Fatalf("leaked leases: inUse=%d", st.InUseBytes)
	}
}

func TestArenaSnapshotText(t *testing.T) {
	a := NewArena(1 << 20)
	b := a.Get(4 << 10)
	defer b.Release()
	text := a.Snapshot().Text()
	for _, want := range []string{
		`automdt_arena_capacity_bytes 1.048576e+06`,
		`automdt_arena_bytes{state="in_use"} 4096`,
		`automdt_arena_gets_total{kind="miss"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, text)
		}
	}
}

func TestChunkReleaseIdempotent(t *testing.T) {
	a := NewArena(1 << 20)
	b := a.Get(100)
	c := Chunk{Data: b.Bytes(), Buf: b}
	c.Release()
	c.Release() // second call must be a no-op, not an over-release panic
	if st := a.Stats(); st.InUseBytes != 0 {
		t.Fatalf("inUse=%d after release", st.InUseBytes)
	}
}

// The end-to-end lifecycle invariant: after any number of loopback
// transfers every lease is back in the arena, and steady-state transfers
// are served from the free lists.
func TestArenaLoopbackLifecycle(t *testing.T) {
	a := NewArena(512 << 20)
	cfg := Config{ChunkBytes: 64 << 10, MaxThreads: 8, InitialThreads: 4, Arena: a}
	m := workload.LargeFiles(4, 1<<20)
	var warmMisses int64
	for i := 0; i < 3; i++ {
		src, dst := fsim.NewSyntheticStore(), fsim.NewSyntheticStore()
		if _, err := Loopback(context.Background(), cfg, m, src, dst, nil); err != nil {
			t.Fatal(err)
		}
		st := a.Stats()
		if st.InUseBytes != 0 {
			t.Fatalf("run %d leaked leases: inUse=%d", i, st.InUseBytes)
		}
		if i == 0 {
			warmMisses = st.Misses
		}
	}
	st := a.Stats()
	// A later run can momentarily hold more concurrent leases than the
	// warm-up run did: worker scheduling varies, and the (default)
	// checksummed read stage holds each lease through a CRC pass, which
	// deepens the pipeline noticeably under the race detector — with one
	// lease per chunk and staging larger than the dataset, up to the
	// whole run can be in flight at once. What must not happen is
	// per-chunk allocation: 64 chunks/run × 2 ends × 2 post-warmup runs
	// here, against fewer new buffers than one run has chunks.
	chunks := m.TotalBytes() / int64(cfg.ChunkBytes)
	if st.Misses-warmMisses >= chunks {
		t.Fatalf("steady-state runs allocated per chunk: misses %d → %d", warmMisses, st.Misses)
	}
	if st.Hits == 0 {
		t.Fatal("no pool hits recorded")
	}
}

// An aborted transfer (receiver dies mid-flight) must also return every
// lease once both ends have wound down.
func TestArenaLeaseReturnOnFailure(t *testing.T) {
	a := NewArena(512 << 20)
	cfg := Config{ChunkBytes: 64 << 10, MaxThreads: 4, InitialThreads: 2, Arena: a}
	src := fsim.NewSyntheticStore()
	dst := &failingStore{inner: fsim.NewSyntheticStore(), budget: 256 << 10}
	m := workload.LargeFiles(4, 1<<20)
	if _, err := Loopback(context.Background(), cfg, m, src, dst, nil); err == nil {
		t.Fatal("expected failure")
	}
	if st := a.Stats(); st.InUseBytes != 0 {
		t.Fatalf("failed transfer leaked leases: inUse=%d", st.InUseBytes)
	}
}

// Regression: a write failure with a tiny receiver staging buffer parks
// the data-connection readers in Staging.Put (the write pool is already
// gone); receiver shutdown must close staging before waiting on those
// readers or Serve deadlocks forever.
func TestReceiverShutdownWithReadersBlockedInPut(t *testing.T) {
	a := NewArena(512 << 20)
	cfg := Config{
		ChunkBytes: 64 << 10, MaxThreads: 4, InitialThreads: 4, Arena: a,
		// Staging holds only two chunks: the sender outruns the failing
		// writer immediately and readers block in Put.
		ReceiverBufBytes: 128 << 10,
	}
	src := fsim.NewSyntheticStore()
	dst := &failingStore{inner: fsim.NewSyntheticStore(), budget: 128 << 10}
	m := workload.LargeFiles(4, 2<<20)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := Loopback(ctx, cfg, m, src, dst, nil); err == nil {
		t.Fatal("expected failure")
	}
	if ctx.Err() != nil {
		t.Fatal("receiver shutdown deadlocked until the test timeout")
	}
	if st := a.Stats(); st.InUseBytes != 0 {
		t.Fatalf("leaked leases: inUse=%d", st.InUseBytes)
	}
}

func TestArenaTrim(t *testing.T) {
	a := NewArena(64 << 20)
	held := a.Get(1 << 20)
	b := a.Get(256 << 10)
	b.Release()
	a.Trim()
	st := a.Stats()
	if st.PooledBytes != 0 {
		t.Fatalf("pooled=%d after Trim", st.PooledBytes)
	}
	if st.InUseBytes != 1<<20 {
		t.Fatalf("Trim touched leased buffers: inUse=%d", st.InUseBytes)
	}
	held.Release() // pools again after Trim
	if st := a.Stats(); st.PooledBytes != 1<<20 {
		t.Fatalf("post-Trim release not pooled: %d", st.PooledBytes)
	}
}
