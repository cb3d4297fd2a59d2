package transfer

import (
	"sync"
)

// Chunk is one unit of file data moving through the pipeline. When the
// payload was leased from an Arena, Buf carries the lease: putting the
// chunk into a Staging buffer transfers ownership to the consumer, which
// must call Release exactly once when done with Data. A nil Buf (tests,
// ad-hoc callers) makes Release a no-op and leaves the payload to the GC.
type Chunk struct {
	FileID uint32
	Offset int64
	Data   []byte
	Buf    *Buf
	// Sum is the payload CRC-32C computed by the sender's read stage,
	// carried along so the frame writer never re-hashes the chunk. The
	// receiver deliberately ignores it: its ledger records a fresh hash
	// taken at the write stage, keeping file verification end-to-end.
	Sum uint32
}

// size returns the chunk's payload length.
func (c *Chunk) size() int64 { return int64(len(c.Data)) }

// Release returns the chunk's arena lease, if any. Safe to call more
// than once on the same Chunk value (the second call is a no-op).
func (c *Chunk) Release() {
	if c.Buf != nil {
		c.Buf.Release()
		c.Buf = nil
	}
}

// releaseAll releases every chunk of a batch.
func releaseAll(cs []Chunk) {
	for i := range cs {
		cs[i].Release()
	}
}

// Staging is a bounded FIFO of chunks with byte-based capacity
// accounting and the one hand-off between pipeline stages. Put blocks
// while the buffer is full (the "sender buffer full" condition of
// Fig. 1); GetN parks a consumer that finds it empty until a Put or
// Close. Closing wakes all waiters.
type Staging struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	capBytes int64
	used     int64
	q        []Chunk
	head     int
	closed   bool
	// ready holds at most one wake-up token. Every Put, and every take
	// that leaves chunks behind, makes sure one is pending, so while the
	// buffer is non-empty some parked consumer is always on its way;
	// Close closes the channel, which wakes them all for good.
	ready chan struct{}
}

// NewStaging creates a staging buffer holding up to capBytes of chunk
// payload.
func NewStaging(capBytes int64) *Staging {
	s := &Staging{capBytes: capBytes, ready: make(chan struct{}, 1)}
	s.notFull = sync.NewCond(&s.mu)
	return s
}

// Put appends a chunk, blocking until capacity is available. A chunk
// larger than the whole capacity is admitted when the buffer is empty so
// oversized chunks cannot deadlock. Put reports false if the staging
// buffer was closed.
func (s *Staging) Put(c Chunk) bool {
	n := c.size()
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed && s.used+n > s.capBytes && s.used > 0 {
		s.notFull.Wait()
	}
	if s.closed {
		return false
	}
	s.q = append(s.q, c)
	s.used += n
	s.wakeOneLocked()
	return true
}

// wakeOneLocked leaves a wake-up token for one parked consumer unless one
// is already pending. Once closed, the closed channel wakes everyone.
// Caller holds mu.
func (s *Staging) wakeOneLocked() {
	if s.closed {
		return
	}
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

// takeLocked pops up to max oldest chunks onto dst and passes the wake-up
// on if it leaves any behind. Caller holds mu.
func (s *Staging) takeLocked(dst []Chunk, max int) []Chunk {
	for ; max > 0 && s.head < len(s.q); max-- {
		c := s.q[s.head]
		s.q[s.head] = Chunk{} // release for GC
		s.head++
		s.used -= c.size()
		dst = append(dst, c)
	}
	if s.head == len(s.q) {
		s.q = s.q[:0]
		s.head = 0
	} else {
		s.wakeOneLocked()
	}
	s.notFull.Broadcast()
	return dst
}

// GetN removes up to max oldest chunks, appending them to dst. On an
// empty buffer it parks — no timer — until a Put or Close, or until stop
// or done fires. It returns no chunks with closed set once the buffer is
// closed and fully drained, and no chunks with closed unset when stop or
// done fired first. The network and write stages drain batches: chunks
// popped together share one vectored frame write or one write-worker
// wake-up.
//
// No wake-up is lost: a Put leaves its token even when nobody is parked
// yet, the consumer that receives a token always takes before it looks at
// stop or done again, and a take that leaves chunks behind passes the
// token on. A Put wakes one parked consumer, not all of them. A token can
// outlive the chunk it announced; the consumer it wakes parks again.
func (s *Staging) GetN(dst []Chunk, max int, stop, done <-chan struct{}) (out []Chunk, closed bool) {
	for {
		s.mu.Lock()
		if s.head < len(s.q) {
			dst = s.takeLocked(dst, max)
			s.mu.Unlock()
			return dst, false
		}
		closed = s.closed
		s.mu.Unlock()
		if closed {
			return dst, true
		}
		select {
		case <-stop:
			return dst, false
		case <-done:
			return dst, false
		case <-s.ready:
		}
	}
}

// TryGet removes the oldest chunk without blocking. ok reports whether a
// chunk was returned; closed reports that the buffer is closed and fully
// drained.
func (s *Staging) TryGet() (c Chunk, ok bool, closed bool) {
	var one [1]Chunk
	out, closed := s.TryGetN(one[:0], 1)
	if len(out) == 0 {
		return Chunk{}, false, closed
	}
	return out[0], true, false
}

// TryGetN is GetN without the parking: on an empty buffer it returns at
// once, with closed reporting closed-and-drained.
func (s *Staging) TryGetN(dst []Chunk, max int) (out []Chunk, closed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head == len(s.q) {
		return dst, s.closed
	}
	return s.takeLocked(dst, max), false
}

// Close marks the buffer closed; pending Gets drain remaining chunks,
// pending and future Puts fail.
func (s *Staging) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.ready)
	}
	s.mu.Unlock()
	s.notFull.Broadcast()
}

// ReleaseRemaining drains any queued chunks and returns their arena
// leases. Engines call it after their worker pools shut down so an
// aborted transfer cannot strand leased buffers.
func (s *Staging) ReleaseRemaining() {
	for {
		c, ok, _ := s.TryGet()
		if !ok {
			return
		}
		c.Release()
	}
}

// Used returns the occupied payload bytes.
func (s *Staging) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Free returns the remaining capacity in bytes (never negative).
func (s *Staging) Free() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.used >= s.capBytes {
		return 0
	}
	return s.capBytes - s.used
}

// Len returns the number of queued chunks.
func (s *Staging) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.q) - s.head
}
