package transfer

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"automdt/internal/fsim"
	"automdt/internal/workload"
)

// Conns=1 is the degenerate striping case: one slot, one socket, every
// chunk in rotation order — byte-identical behaviour to the unstriped
// default. Both runs must verify content and put exactly the manifest's
// payload on the wire, with nothing re-sent.
func TestStripedOneConnByteParity(t *testing.T) {
	m := workload.Mixed(12<<20, 3<<10, 700<<10, rand.New(rand.NewSource(42)))
	run := func(conns int) *Result {
		cfg := testConfig()
		cfg.Conns = conns
		src := fsim.NewSyntheticStore()
		dst := fsim.NewSyntheticStore()
		dst.Verify = true
		res, err := Loopback(context.Background(), cfg, m, src, dst, nil)
		if err != nil {
			t.Fatalf("conns=%d: %v", conns, err)
		}
		return res
	}
	plain := run(0)
	one := run(1)
	if plain.Bytes != m.TotalBytes() || one.Bytes != plain.Bytes {
		t.Fatalf("payload bytes: plain=%d one-conn=%d want %d", plain.Bytes, one.Bytes, m.TotalBytes())
	}
	if plain.WireBytes != one.WireBytes {
		t.Fatalf("wire bytes differ: plain=%d one-conn=%d", plain.WireBytes, one.WireBytes)
	}
	if one.WireBytes != m.TotalBytes() {
		t.Fatalf("one-conn wire bytes %d, want exactly the manifest's %d", one.WireBytes, m.TotalBytes())
	}
	if plain.ResentBytes != 0 || one.ResentBytes != 0 {
		t.Fatalf("healthy runs re-sent bytes: plain=%d one-conn=%d", plain.ResentBytes, one.ResentBytes)
	}
}

// A 4-way striped session dials four preambled data connections, fans
// them into one receiver, and still verifies content end to end with no
// recovery traffic.
func TestStripedMultiConnTransfer(t *testing.T) {
	cfg := testConfig()
	cfg.Conns = 4
	// A slot is dialed lazily by the worker with affinity to it, so cap
	// each stream: unshaped, three workers can drain the whole dataset
	// before the fourth ever gets a batch.
	cfg.Shaping.NetPerStreamMbps = 200
	var mu sync.Mutex
	seen := map[int]bool{}
	cfg.Hooks.OnDataConn = func(index int, conn net.Conn) {
		mu.Lock()
		seen[index] = true
		mu.Unlock()
	}
	m := workload.LargeFiles(8, 2<<20)
	src := fsim.NewSyntheticStore()
	dst := fsim.NewSyntheticStore()
	dst.Verify = true
	res, err := Loopback(context.Background(), cfg, m, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != m.TotalBytes() {
		t.Fatalf("transferred %d bytes want %d", res.Bytes, m.TotalBytes())
	}
	if res.ResentBytes != 0 {
		t.Fatalf("healthy striped run re-sent %d bytes", res.ResentBytes)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 4 {
		t.Fatalf("dialed %d distinct data connections, want 4 (%v)", len(seen), seen)
	}
}

// Killing one of four striped connections mid-transfer must not fail the
// session: the surviving connections drain, recovery pulls the
// receiver's ledger, and only the dead connection's uncommitted in-flight
// chunks are re-sent — under 10% of the payload, not a full restart.
func TestStripedConnFailureRecovery(t *testing.T) {
	cfg := testConfig()
	cfg.Conns = 4
	// Slow the data plane enough that the kill lands mid-flight.
	cfg.Shaping.NetPerStreamMbps = 200

	var mu sync.Mutex
	var victim net.Conn
	cfg.Hooks.OnDataConn = func(index int, conn net.Conn) {
		mu.Lock()
		if index == 1 && victim == nil {
			victim = conn
		}
		mu.Unlock()
	}
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.After(10 * time.Second)
		for {
			mu.Lock()
			c := victim
			mu.Unlock()
			if c != nil {
				time.Sleep(30 * time.Millisecond) // let some frames flow first
				c.Close()
				return
			}
			select {
			case <-deadline:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	m := workload.LargeFiles(16, 2<<20) // 32 MB
	src := fsim.NewSyntheticStore()
	dst := fsim.NewSyntheticStore()
	dst.Verify = true
	res, err := Loopback(context.Background(), cfg, m, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-killed
	mu.Lock()
	hadVictim := victim != nil
	mu.Unlock()
	if !hadVictim {
		t.Fatal("connection 1 was never dialed; kill did not happen")
	}
	if res.Bytes != m.TotalBytes() {
		t.Fatalf("transferred %d bytes want %d", res.Bytes, m.TotalBytes())
	}
	if res.ResentBytes >= res.Bytes/10 {
		t.Fatalf("recovery re-sent %d of %d bytes (≥10%%): not a targeted re-plan", res.ResentBytes, res.Bytes)
	}
	if res.WireBytes != res.Bytes+res.ResentBytes {
		t.Fatalf("wire bytes %d ≠ payload %d + resent %d", res.WireBytes, res.Bytes, res.ResentBytes)
	}
}

// When every data connection dies and cannot be re-dialed, the sender
// fails the attempt instead of hanging.
func TestStripedAllConnsDeadFails(t *testing.T) {
	cs := newConnSet(2, func(int) (net.Conn, error) { return nil, context.DeadlineExceeded }, nil)
	c := cs.pick(-1)
	if c == nil {
		t.Fatal("fresh set has no slot")
	}
	cs.markDead(c)
	c2 := cs.pick(-1)
	if c2 == nil || c2 == c {
		t.Fatalf("pick after one death returned %v", c2)
	}
	cs.markDead(c2)
	if got := cs.pick(-1); got != nil {
		t.Fatalf("pick with every slot dead returned %v, want nil", got)
	}
}

// Shrinking the live prefix retires slots from rotation; growing it
// exposes them again without redialing the survivors.
func TestConnSetResize(t *testing.T) {
	cs := newConnSet(3, func(int) (net.Conn, error) { return nil, nil }, nil)
	picked := map[int]bool{}
	for i := 0; i < 6; i++ {
		picked[cs.pick(-1).index] = true
	}
	if len(picked) != 3 {
		t.Fatalf("3-wide rotation hit %d slots", len(picked))
	}
	cs.setWant(1)
	for i := 0; i < 4; i++ {
		if idx := cs.pick(-1).index; idx != 0 {
			t.Fatalf("1-wide rotation picked slot %d", idx)
		}
	}
	cs.setWant(4)
	picked = map[int]bool{}
	for i := 0; i < 8; i++ {
		picked[cs.pick(-1).index] = true
	}
	if len(picked) != 4 {
		t.Fatalf("4-wide rotation hit %d slots", len(picked))
	}
}

// A worker's hint pins it to one slot while that slot lives, and falls
// back to live slots once it dies.
func TestConnSetWorkerAffinity(t *testing.T) {
	cs := newConnSet(3, func(int) (net.Conn, error) { return nil, nil }, nil)
	for i := 0; i < 5; i++ {
		if idx := cs.pick(7).index; idx != 7%3 {
			t.Fatalf("hint 7 picked slot %d, want %d", idx, 7%3)
		}
	}
	cs.markDead(cs.pick(7))
	for i := 0; i < 4; i++ {
		c := cs.pick(7)
		if c == nil || c.index == 7%3 {
			t.Fatalf("dead hinted slot still picked: %v", c)
		}
	}
}
