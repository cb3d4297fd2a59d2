package rate

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source.
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

// withClock builds a limiter that reads time from clk.
func withClock(bytesPerSec, burst float64, clk *fakeClock) *Limiter {
	l := NewLimiter(bytesPerSec, burst)
	l.now, l.last = clk.now, clk.now()
	return l
}

func TestUnlimitedNeverDelays(t *testing.T) {
	l := Unlimited()
	for i := 0; i < 100; i++ {
		if d := l.reserve(1 << 30); d != 0 {
			t.Fatalf("unlimited limiter delayed %v", d)
		}
	}
}

func TestAllowNWithinBurst(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	l := withClock(1000, 1000, clk)
	if d := l.reserve(1000); d != 0 {
		t.Fatalf("full burst delayed %v", d)
	}
	if d := l.reserve(1); d <= 0 {
		t.Fatal("a byte past the burst went through an empty bucket")
	}
	clk.advance(500 * time.Millisecond)
	// 0.5 s at 1000 B/s refills 500: the 1-byte debt plus 499 more.
	if d := l.reserve(499); d != 0 {
		t.Fatalf("refill after 0.5s delayed 499 bytes by %v", d)
	}
}

func TestReserveDebtDelay(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	l := withClock(1000, 1000, clk)
	if d := l.reserve(1000); d != 0 {
		t.Fatalf("burst take delayed %v", d)
	}
	// 500 bytes of debt at 1000 B/s → 0.5 s wait.
	if d := l.reserve(500); d != 500*time.Millisecond {
		t.Fatalf("debt delay = %v want 500ms", d)
	}
}

func TestSetRateTakesEffect(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	l := withClock(1000, 1000, clk)
	l.reserve(1000) // drain
	l.SetRateBurst(2000, 1000)
	clk.advance(250 * time.Millisecond)
	if d := l.reserve(500); d != 0 {
		t.Fatalf("after rate change, 0.25s at 2000 B/s should refill 500; waited %v", d)
	}
	if l.rate != 2000 {
		t.Fatalf("rate=%v", l.rate)
	}
}

func TestWaitNContextCancel(t *testing.T) {
	l := NewLimiter(1, 1) // 1 byte/sec: second call would wait ~forever
	l.reserve(1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := l.WaitN(ctx, 1000); err == nil {
		t.Fatal("expected context deadline error")
	}
}

func TestWaitNImmediateWhenTokensAvailable(t *testing.T) {
	l := NewLimiter(1e9, 1e9)
	start := time.Now()
	if err := l.WaitN(context.Background(), 1000); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("WaitN delayed despite available tokens")
	}
}

func TestConcurrentAccessIsSafe(t *testing.T) {
	l := NewLimiter(1e12, 1e12)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				l.WaitN(context.Background(), 10)
				l.reserve(10)
			}
		}()
	}
	wg.Wait()
}

// Sustained throughput over fake time should approximate the configured
// rate: a caller that waits out every delay reserve hands it (as WaitN
// does) gets the burst plus rate × elapsed.
func TestSustainedRateApproximation(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	l := withClock(1_000_000, 100_000, clk) // 1 MB/s, 100 KB burst
	end := clk.now().Add(10 * time.Second)
	granted := 0
	for clk.now().Before(end) {
		clk.advance(l.reserve(8192))
		granted += 8192
	}
	want := 10_000_000.0
	if ratio := float64(granted) / want; ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("granted %d bytes over 10s at 1MB/s (ratio %v)", granted, ratio)
	}
}

// SetRateBurst must drop banked tokens above the new burst so a
// downshift takes effect immediately instead of after one stale burst.
func TestSetRateBurstDropsBankedTokens(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	l := withClock(10_000_000, 10_000_000, clk) // full 10 MB bucket
	l.SetRateBurst(100_000, 10_000)             // snap to 100 KB/s, 10 KB bucket
	if l.rate != 100_000 {
		t.Fatalf("rate = %v, want 100000", l.rate)
	}
	if d := l.reserve(10_000); d != 0 {
		t.Fatalf("the new 10 KB bucket delayed 10000 bytes by %v", d)
	}
	if d := l.reserve(1); d <= 0 {
		t.Fatal("a byte past the new 10 KB bucket went through: stale tokens kept")
	}
	// Refill obeys the new rate: 50 ms at 100 KB/s banks 5 KB, one of
	// which pays the byte of debt.
	clk.advance(50 * time.Millisecond)
	if d := l.reserve(4_999); d != 0 {
		t.Fatalf("4999 bytes delayed %v after a 5 KB refill", d)
	}
	if d := l.reserve(1_000); d <= 0 {
		t.Fatal("1000 bytes went through an empty bucket")
	}
	// Unlimited via SetRateBurst(0, ...) never delays.
	l.SetRateBurst(0, 1)
	if d := l.reserve(1 << 30); d != 0 {
		t.Fatalf("unlimited limiter delayed %v", d)
	}
}
