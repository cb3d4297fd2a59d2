// Package rate implements token-bucket rate limiting used to emulate
// per-thread I/O caps, per-stream network throttles, and aggregate link
// bandwidth in the AutoMDT emulated testbed (the paper throttles per-TCP
// stream rates exactly this way to build its bottleneck scenarios, §V-B-1).
package rate

import (
	"context"
	"math"
	"sync"
	"time"
)

// Limiter is a token-bucket rate limiter measured in bytes per second.
// A zero or negative rate means unlimited. Limiter is safe for
// concurrent use.
type Limiter struct {
	mu     sync.Mutex
	rate   float64 // tokens (bytes) per second
	burst  float64 // bucket capacity in bytes
	tokens float64
	last   time.Time
	now    func() time.Time // injectable clock for tests
}

// NewLimiter creates a limiter that admits bytesPerSec bytes per second
// with the given burst capacity. If burst <= 0 it defaults to one second's
// worth of tokens (or 64 KiB, whichever is larger).
func NewLimiter(bytesPerSec float64, burst float64) *Limiter {
	if burst <= 0 {
		burst = math.Max(bytesPerSec, 64<<10)
	}
	l := &Limiter{rate: bytesPerSec, burst: burst, now: time.Now}
	l.tokens = burst
	l.last = l.now()
	return l
}

// Unlimited returns a limiter that never delays.
func Unlimited() *Limiter { return NewLimiter(0, 1) }

// SetRateBurst changes the refill rate and resets the bucket capacity,
// dropping any banked tokens above the new burst. This lets a caller
// snap the limiter into a strictly slower regime — e.g. a Markov link
// model downshifting state — without a stale full bucket letting one
// large burst through first.
// A burst <= 0 defaults as in NewLimiter.
func (l *Limiter) SetRateBurst(bytesPerSec, burst float64) {
	if burst <= 0 {
		burst = math.Max(bytesPerSec, 64<<10)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.advance()
	l.rate = bytesPerSec
	l.burst = burst
	if l.tokens > burst {
		l.tokens = burst
	}
}

// advance refills tokens for elapsed time. Caller must hold mu.
func (l *Limiter) advance() {
	now := l.now()
	elapsed := now.Sub(l.last).Seconds()
	if elapsed > 0 {
		l.tokens = math.Min(l.burst, l.tokens+elapsed*l.rate)
		l.last = now
	}
}

// reserve consumes n tokens and returns how long the caller must wait
// before proceeding. Tokens may go negative (debt), which naturally
// serializes heavy callers.
func (l *Limiter) reserve(n int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rate <= 0 || n <= 0 {
		return 0
	}
	l.advance()
	l.tokens -= float64(n)
	if l.tokens >= 0 {
		return 0
	}
	return time.Duration(-l.tokens / l.rate * float64(time.Second))
}

// WaitN blocks until n bytes may proceed or ctx is cancelled.
func (l *Limiter) WaitN(ctx context.Context, n int) error {
	d := l.reserve(n)
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
