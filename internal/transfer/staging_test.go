package transfer

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// get takes the oldest chunk, blocking until one is there; false once s
// is closed and drained.
func get(s *Staging) (Chunk, bool) {
	out, _ := s.GetN(nil, 1, nil, nil)
	if len(out) == 0 {
		return Chunk{}, false
	}
	return out[0], true
}

func TestStagingFIFO(t *testing.T) {
	s := NewStaging(1 << 20)
	for i := 0; i < 5; i++ {
		if !s.Put(Chunk{FileID: uint32(i), Data: make([]byte, 10)}) {
			t.Fatal("Put failed")
		}
	}
	for i := 0; i < 5; i++ {
		c, ok := get(s)
		if !ok || c.FileID != uint32(i) {
			t.Fatalf("Get %d: ok=%v id=%d", i, ok, c.FileID)
		}
	}
	if s.Len() != 0 || s.Used() != 0 {
		t.Fatalf("len=%d used=%d", s.Len(), s.Used())
	}
}

func TestStagingAccounting(t *testing.T) {
	s := NewStaging(100)
	s.Put(Chunk{Data: make([]byte, 30)})
	s.Put(Chunk{Data: make([]byte, 50)})
	if s.Used() != 80 || s.Free() != 20 || s.capBytes != 100 {
		t.Fatalf("used=%d free=%d cap=%d", s.Used(), s.Free(), s.capBytes)
	}
}

func TestStagingBlocksWhenFull(t *testing.T) {
	s := NewStaging(100)
	s.Put(Chunk{Data: make([]byte, 100)})
	var progressed atomic.Bool
	go func() {
		s.Put(Chunk{Data: make([]byte, 50)})
		progressed.Store(true)
	}()
	time.Sleep(20 * time.Millisecond)
	if progressed.Load() {
		t.Fatal("Put should block while full")
	}
	get(s) // free space
	for i := 0; i < 100 && !progressed.Load(); i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if !progressed.Load() {
		t.Fatal("Put did not unblock after space freed")
	}
}

func TestStagingOversizedChunkAdmittedWhenEmpty(t *testing.T) {
	s := NewStaging(10)
	done := make(chan bool, 1)
	go func() { done <- s.Put(Chunk{Data: make([]byte, 100)}) }()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("oversized Put failed")
		}
	case <-time.After(time.Second):
		t.Fatal("oversized Put deadlocked on empty buffer")
	}
}

func TestStagingCloseDrains(t *testing.T) {
	s := NewStaging(1000)
	s.Put(Chunk{FileID: 1, Data: make([]byte, 10)})
	s.Close()
	if s.Put(Chunk{Data: make([]byte, 1)}) {
		t.Fatal("Put after Close should fail")
	}
	if c, ok := get(s); !ok || c.FileID != 1 {
		t.Fatal("Get should drain remaining chunks after Close")
	}
	if _, ok := get(s); ok {
		t.Fatal("Get on drained closed buffer should report false")
	}
}

func TestStagingCloseWakesBlockedGetters(t *testing.T) {
	s := NewStaging(100)
	done := make(chan struct{})
	go func() {
		get(s)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("blocked Get not woken by Close")
	}
}

func TestTryGet(t *testing.T) {
	s := NewStaging(100)
	if _, ok, closed := s.TryGet(); ok || closed {
		t.Fatal("TryGet on empty open buffer should be (!ok, !closed)")
	}
	s.Put(Chunk{FileID: 3, Data: make([]byte, 5)})
	c, ok, _ := s.TryGet()
	if !ok || c.FileID != 3 {
		t.Fatalf("TryGet ok=%v id=%d", ok, c.FileID)
	}
	s.Close()
	if _, ok, closed := s.TryGet(); ok || !closed {
		t.Fatal("TryGet on closed drained buffer should report closed")
	}
}

// TryGetN must drain up to max staged chunks without blocking, keep
// accounting exact, and report closure only when the buffer is empty.
func TestStagingTryGetN(t *testing.T) {
	s := NewStaging(1 << 20)
	for i := 0; i < 5; i++ {
		if !s.Put(Chunk{FileID: 1, Offset: int64(i) * 64, Data: make([]byte, 64)}) {
			t.Fatal("staging closed early")
		}
	}
	batch, closed := s.TryGetN(nil, 3)
	if closed || len(batch) != 3 {
		t.Fatalf("first drain got %d closed=%v, want 3 false", len(batch), closed)
	}
	for i, c := range batch {
		if c.Offset != int64(i)*64 {
			t.Fatalf("chunk %d offset %d, want FIFO order", i, c.Offset)
		}
	}
	batch, closed = s.TryGetN(batch[:0], 10)
	if closed || len(batch) != 2 {
		t.Fatalf("second drain got %d closed=%v, want 2 false", len(batch), closed)
	}
	if got := s.Used(); got != 0 {
		t.Fatalf("staging holds %d bytes after full drain", got)
	}
	s.Close()
	if batch, closed = s.TryGetN(batch[:0], 1); !closed || len(batch) != 0 {
		t.Fatalf("drained closed staging got %d closed=%v, want 0 true", len(batch), closed)
	}
}

func TestStagingConcurrentProducersConsumers(t *testing.T) {
	s := NewStaging(64 << 10)
	const producers, perProducer = 4, 200
	var produced, consumed atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if s.Put(Chunk{Data: make([]byte, 1024)}) {
					produced.Add(1)
				}
			}
		}()
	}
	var cwg sync.WaitGroup
	for c := 0; c < 3; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				_, ok := get(s)
				if !ok {
					return
				}
				consumed.Add(1)
			}
		}()
	}
	wg.Wait()
	s.Close()
	cwg.Wait()
	if produced.Load() != producers*perProducer || consumed.Load() != produced.Load() {
		t.Fatalf("produced=%d consumed=%d", produced.Load(), consumed.Load())
	}
}

// A Put's wake-up is a token that stays pending until a consumer parks,
// so one that lands between an empty take and the park is not missed; a
// take that leaves chunks behind passes the token on; and the hand-off
// allocates nothing.
func TestStagingWakeTokenCannotBeMissed(t *testing.T) {
	s := NewStaging(1 << 20)
	stopped := make(chan struct{})
	close(stopped)
	if batch, closed := s.GetN(nil, 4, stopped, nil); len(batch) != 0 || closed {
		t.Fatalf("stopped consumer on an empty open buffer: batch=%d closed=%v", len(batch), closed)
	}
	// Two consumers parked, two chunks, one token — what two Puts leave
	// when the second finds the first's token still pending. The first
	// consumer's take must pass the wake-up on to the second.
	got := make(chan []Chunk, 2)
	for i := 0; i < 2; i++ {
		go func() {
			batch, _ := s.GetN(nil, 1, nil, nil)
			got <- batch
		}()
	}
	time.Sleep(20 * time.Millisecond) // let both park; one that has not only makes the case easier
	s.mu.Lock()
	s.q = append(s.q, Chunk{FileID: 1, Data: make([]byte, 8)}, Chunk{FileID: 2, Data: make([]byte, 8)})
	s.used += 16
	s.wakeOneLocked()
	s.mu.Unlock()
	for i := 0; i < 2; i++ {
		if batch := within(t, "GetN", got); len(batch) != 1 {
			t.Fatalf("parked consumer woke with %d chunks, want 1", len(batch))
		}
	}
	// A chunk must win over a stop that is already set: the consumer that
	// holds the token is the only one who knows about it.
	s.Put(Chunk{FileID: 4, Data: make([]byte, 8)})
	if batch, _ := s.GetN(nil, 1, stopped, nil); len(batch) != 1 {
		t.Fatal("GetN returned on stop with a chunk staged")
	}
	s.Close()
	if batch, closed := s.GetN(nil, 1, nil, nil); len(batch) != 0 || !closed {
		t.Fatalf("closed and drained: batch=%d closed=%v", len(batch), closed)
	}

	s = NewStaging(1 << 20)
	c := Chunk{Data: make([]byte, 8)}
	batch := make([]Chunk, 0, 1)
	s.Put(c)
	s.TryGet() // q has its capacity now
	if n := testing.AllocsPerRun(100, func() {
		s.Put(c)
		s.TryGet()
		s.Put(c)
		batch, _ = s.GetN(batch[:0], 1, nil, nil)
	}); n != 0 {
		t.Fatalf("hand-off allocates %.0f times per two chunks", n)
	}
}

// drainLoop is the stage workers' consumer loop (sender network stage,
// receiver write stage) cut down to its hand-off. It reports whether it
// ended on closed-and-drained rather than stop or cancel.
func drainLoop(ctx context.Context, stop <-chan struct{}, s *Staging, max int, each func(*Chunk)) bool {
	var batch []Chunk
	for {
		select {
		case <-stop:
			return false
		case <-ctx.Done():
			return false
		default:
		}
		var closed bool
		batch, closed = s.GetN(batch[:0], max, stop, ctx.Done())
		if len(batch) == 0 {
			return closed
		}
		for i := range batch {
			each(&batch[i])
			batch[i].Release()
		}
	}
}

// within fails the test unless ch delivers before a deadline far above
// any scheduling delay: a parked worker that misses its wake-up hangs.
func within[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: parked consumer never woke", what)
		panic("unreachable")
	}
}

// A consumer parked on an empty buffer returns on Put, on Close (reporting
// closed-and-drained), on pool shrink and Shutdown, and on context cancel.
func TestStagingParkedConsumerWakes(t *testing.T) {
	type exit struct {
		id     int
		closed bool
	}
	setup := func(workers int) (s *Staging, p *Pool, cancel context.CancelFunc, got chan uint32, exits chan exit) {
		s = NewStaging(1 << 20)
		ctx, cancel := context.WithCancel(context.Background())
		got = make(chan uint32, 1)
		exits = make(chan exit, workers)
		var started atomic.Int64
		p = NewPool(func(stop <-chan struct{}, id int) {
			started.Add(1)
			exits <- exit{id, drainLoop(ctx, stop, s, 4, func(c *Chunk) { got <- c.FileID })}
		})
		p.Resize(workers)
		// Started is as close to parked as a test can see; a wake-up that
		// beats the park must work just the same.
		waitFor(t, func() bool { return started.Load() == int64(workers) })
		return s, p, cancel, got, exits
	}
	shutdown := func(p *Pool) <-chan struct{} {
		done := make(chan struct{})
		go func() { p.Shutdown(); close(done) }()
		return done
	}

	t.Run("put", func(t *testing.T) {
		s, p, cancel, got, _ := setup(1)
		defer cancel()
		s.Put(Chunk{FileID: 7, Data: make([]byte, 8)})
		if id := within(t, "Put", got); id != 7 {
			t.Fatalf("woke with chunk %d, want 7", id)
		}
		within(t, "Shutdown", shutdown(p))
	})
	t.Run("close", func(t *testing.T) {
		s, p, cancel, _, exits := setup(2)
		defer cancel()
		s.Close()
		for i := 0; i < 2; i++ {
			if e := within(t, "Close", exits); !e.closed {
				t.Fatalf("worker %d left on Close without reporting closed-and-drained", e.id)
			}
		}
		p.Shutdown()
	})
	t.Run("shrink", func(t *testing.T) {
		_, p, cancel, _, exits := setup(3)
		defer cancel()
		p.Resize(2)
		if e := within(t, "Resize", exits); e.id != 2 || e.closed {
			t.Fatalf("shrink to 2 released %+v, want slot 2 by stop", e)
		}
		within(t, "Shutdown", shutdown(p))
		for i := 0; i < 2; i++ {
			if e := <-exits; e.closed {
				t.Fatalf("worker %d reported closed on Shutdown of an open buffer", e.id)
			}
		}
	})
	t.Run("cancel", func(t *testing.T) {
		_, p, cancel, _, exits := setup(2)
		cancel()
		for i := 0; i < 2; i++ {
			if e := within(t, "cancel", exits); e.closed {
				t.Fatalf("worker %d reported closed on cancel of an open buffer", e.id)
			}
		}
		p.Shutdown()
	})
}

// One closed-loop producer against one consumer: the producer's next Put
// races the consumer's empty look and its park inside GetN, and nothing
// else will ever wake the consumer, so a wake-up lost in that window
// stalls the run.
func TestStagingPingPongNeverStalls(t *testing.T) {
	s := NewStaging(1 << 20)
	ack := make(chan struct{})
	pool := NewPool(func(stop <-chan struct{}, id int) {
		drainLoop(context.Background(), stop, s, 1, func(*Chunk) { ack <- struct{}{} })
	})
	pool.Resize(1)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		c := Chunk{Data: make([]byte, 8)}
		for i := 0; i < 20000; i++ {
			s.Put(c)
			<-ack
		}
	}()
	within(t, "ping-pong", finished)
	pool.Shutdown()
}

// The lost-wake-up test: producers, a consumer pool resized up and down
// mid-run, and a Close at a random point. Every chunk Put accepted is
// consumed exactly once, every lease goes back to the arena, and no
// goroutine outlives Shutdown. A missed wake-up shows as a hang.
func TestStagingHandoffStress(t *testing.T) {
	const producers, perProducer = 4, 400
	before := runtime.NumGoroutine()
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		arena := NewArena(64 << 20)
		s := NewStaging(16 << 10) // small: the buffer runs both full and empty
		closeAt := int64(rng.Intn(producers*perProducer) + 1)
		accepted := make([]atomic.Bool, producers*perProducer)
		seen := make([]atomic.Int32, producers*perProducer)
		var consumed atomic.Int64
		pool := NewPool(func(stop <-chan struct{}, id int) {
			drainLoop(context.Background(), stop, s, 1+id, func(c *Chunk) {
				seen[c.FileID].Add(1)
				if consumed.Add(1) == closeAt {
					s.Close()
				}
			})
		})
		pool.Resize(3)

		var pwg sync.WaitGroup
		for p := 0; p < producers; p++ {
			pwg.Add(1)
			go func(p int) {
				defer pwg.Done()
				for i := 0; i < perProducer; i++ {
					id := p*perProducer + i
					b := arena.Get(1024)
					if !s.Put(Chunk{FileID: uint32(id), Data: b.Bytes(), Buf: b}) {
						b.Release()
						return
					}
					accepted[id].Store(true)
				}
			}(p)
		}
		sizes := make([]int, 64)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(6)
		}
		resized := make(chan struct{})
		go func() {
			defer close(resized)
			for _, n := range sizes {
				pool.Resize(n)
				runtime.Gosched()
			}
		}()

		finished := make(chan struct{})
		go func() {
			defer close(finished)
			pwg.Wait()
			s.Close()
			<-resized
			pool.wg.Wait() // the ≥ 1 remaining workers leave on closed-and-drained
			pool.Shutdown()
		}()
		within(t, "stress", finished)

		if s.Len() != 0 || s.Used() != 0 {
			t.Fatalf("seed %d: %d chunks (%d bytes) stranded in a closed buffer", seed, s.Len(), s.Used())
		}
		for id := range seen {
			want := int32(0)
			if accepted[id].Load() {
				want = 1
			}
			if got := seen[id].Load(); got != want {
				t.Fatalf("seed %d: chunk %d consumed %d times, want %d", seed, id, got, want)
			}
		}
		if inUse := arena.Stats().InUseBytes; inUse != 0 {
			t.Fatalf("seed %d: arena still leases %d bytes", seed, inUse)
		}
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}

func TestPoolResize(t *testing.T) {
	var active atomic.Int64
	p := NewPool(func(stop <-chan struct{}, id int) {
		active.Add(1)
		defer active.Add(-1)
		<-stop
	})
	p.Resize(5)
	if p.Size() != 5 {
		t.Fatalf("Size=%d", p.Size())
	}
	waitFor(t, func() bool { return active.Load() == 5 })
	p.Resize(2)
	waitFor(t, func() bool { return active.Load() == 2 })
	p.Resize(7)
	waitFor(t, func() bool { return active.Load() == 7 })
	p.Shutdown()
	waitFor(t, func() bool { return active.Load() == 0 })
	if p.Size() != 0 {
		t.Fatalf("Size after shutdown=%d", p.Size())
	}
}

func TestPoolResizeNegativeClamps(t *testing.T) {
	p := NewPool(func(stop <-chan struct{}, id int) { <-stop })
	p.Resize(-1)
	if p.Size() != 0 {
		t.Fatalf("Size=%d", p.Size())
	}
	p.Shutdown()
}

func TestPoolWorkerIDsAreSlots(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	p := NewPool(func(stop <-chan struct{}, id int) {
		mu.Lock()
		seen[id]++
		mu.Unlock()
		<-stop
	})
	p.Resize(3)
	p.Resize(1)
	p.Resize(3) // slots 1,2 restarted
	p.Shutdown()
	mu.Lock()
	defer mu.Unlock()
	if seen[0] != 1 || seen[1] != 2 || seen[2] != 2 {
		t.Fatalf("slot reuse wrong: %v", seen)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
