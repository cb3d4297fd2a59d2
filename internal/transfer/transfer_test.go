package transfer

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"automdt/internal/env"
	"automdt/internal/fsim"
	"automdt/internal/marlin"
	"automdt/internal/static"
	"automdt/internal/wire"
	"automdt/internal/workload"
)

func testConfig() Config {
	return Config{
		ChunkBytes:       64 << 10,
		SenderBufBytes:   4 << 20,
		ReceiverBufBytes: 4 << 20,
		MaxThreads:       16,
		ProbeInterval:    50 * time.Millisecond,
		InitialThreads:   2,
	}
}

func TestChunkerCoversManifestExactly(t *testing.T) {
	m := workload.Manifest{
		{Name: "a", Size: 100},
		{Name: "b", Size: 64},
		{Name: "c", Size: 1},
	}
	c := newChunker(m, 64, nil)
	var total int64
	counts := map[uint32]int64{}
	for {
		id, off, n, ok := c.next()
		if !ok {
			break
		}
		if n <= 0 || n > 64 {
			t.Fatalf("chunk size %d", n)
		}
		if off != counts[id] {
			t.Fatalf("file %d: offset %d want %d (sequential)", id, off, counts[id])
		}
		counts[id] += int64(n)
		total += int64(n)
	}
	if total != m.TotalBytes() {
		t.Fatalf("chunked %d bytes want %d", total, m.TotalBytes())
	}
	if c.total != 2+1+1 {
		t.Fatalf("total chunks %d want 4", c.total)
	}
	if counts[0] != 100 || counts[1] != 64 || counts[2] != 1 {
		t.Fatalf("per-file coverage %v", counts)
	}
}

func TestChunkerSkipsEmptyFiles(t *testing.T) {
	m := workload.Manifest{
		{Name: "empty", Size: 0},
		{Name: "a", Size: 10},
	}
	c := newChunker(m, 64, nil)
	id, _, n, ok := c.next()
	if !ok || id != 1 || n != 10 {
		t.Fatalf("got id=%d n=%d ok=%v", id, n, ok)
	}
	if _, _, _, ok := c.next(); ok {
		t.Fatal("chunker should be exhausted")
	}
}

// End-to-end loopback transfer with a fixed controller and content
// verification.
func TestLoopbackTransferIntegrity(t *testing.T) {
	src := fsim.NewSyntheticStore()
	dst := fsim.NewSyntheticStore()
	dst.Verify = true
	m := workload.LargeFiles(8, 512<<10)

	res, err := Loopback(context.Background(), testConfig(), m, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != m.TotalBytes() {
		t.Fatalf("bytes=%d want %d", res.Bytes, m.TotalBytes())
	}
	if dst.TotalWritten() != m.TotalBytes() {
		t.Fatalf("written=%d want %d", dst.TotalWritten(), m.TotalBytes())
	}
	if errs := dst.Errors(); len(errs) != 0 {
		t.Fatalf("corruption detected: %v", errs[0])
	}
	if res.AvgMbps <= 0 {
		t.Fatalf("AvgMbps=%v", res.AvgMbps)
	}
}

func TestLoopbackMixedDatasetOddSizes(t *testing.T) {
	src := fsim.NewSyntheticStore()
	dst := fsim.NewSyntheticStore()
	dst.Verify = true
	// Odd sizes exercise partial-chunk paths.
	m := workload.Manifest{
		{Name: "tiny", Size: 1},
		{Name: "odd", Size: 64<<10 + 17},
		{Name: "exact", Size: 128 << 10},
		{Name: "sub", Size: 63},
	}
	res, err := Loopback(context.Background(), testConfig(), m, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != m.TotalBytes() || dst.TotalWritten() != m.TotalBytes() {
		t.Fatalf("bytes=%d written=%d want %d", res.Bytes, dst.TotalWritten(), m.TotalBytes())
	}
	if len(dst.Errors()) != 0 {
		t.Fatalf("corruption: %v", dst.Errors()[0])
	}
}

func TestLoopbackWithChecksums(t *testing.T) {
	src := fsim.NewSyntheticStore()
	dst := fsim.NewSyntheticStore()
	dst.Verify = true
	m := workload.LargeFiles(6, 512<<10)
	res, err := Loopback(context.Background(), testConfig(), m, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != m.TotalBytes() || len(dst.Errors()) != 0 {
		t.Fatalf("checksummed transfer failed: bytes=%d errs=%v", res.Bytes, dst.Errors())
	}
}

// crcSpoiler is a data connection that spoils the first frame it
// carries, if spoil says so: spoil may rewrite the header in place, and
// flip asks for a byte of the payload after it to be flipped. A wrapped
// connection gets each header and each payload as a write of its own,
// and a header is told from a preamble by its magic.
type crcSpoiler struct {
	net.Conn
	spoil    func(hdr []byte) (spoiled, flip bool)
	first    bool
	flipNext bool
}

func (c *crcSpoiler) Write(p []byte) (int, error) {
	switch {
	case c.flipNext:
		c.flipNext = false
		p = bytes.Clone(p)
		p[len(p)/2] ^= 0x10
	case !c.first && len(p) == wire.FrameHeaderSize && [4]byte(p[:4]) != wire.PreambleMagic:
		c.first = true
		hdr := bytes.Clone(p)
		if spoiled, flip := c.spoil(hdr); spoiled {
			p, c.flipNext = hdr, flip
		}
	}
	return c.Conn.Write(p)
}

// A frame whose CRC field is zero, as a plain sender of protocols before
// 7 wrote it, or whose payload no longer matches its CRC, never reaches
// the store: the write stage drops it and closes its connection, the
// sender re-sends what the connection lost over the survivors, and the
// session completes byte-correct.
func TestLoopbackChecksumsDisabled(t *testing.T) {
	src := fsim.NewSyntheticStore()
	dst := fsim.NewSyntheticStore()
	dst.Verify = true
	cfg := testConfig()
	cfg.Conns = 4 // two connections die, two carry the rest
	var mu sync.Mutex
	spoiled := 0
	cfg.WrapConn = func(kind string, c net.Conn) net.Conn {
		if kind != "data" {
			return c
		}
		return &crcSpoiler{Conn: c, spoil: func(hdr []byte) (bool, bool) {
			mu.Lock()
			defer mu.Unlock()
			if spoiled == 2 {
				return false, false
			}
			spoiled++
			if spoiled == 1 {
				binary.BigEndian.PutUint32(hdr[16:20], 0)
				return true, false
			}
			return true, true // the header stays, the payload changes
		}}
	}
	m := workload.LargeFiles(6, 512<<10)
	res, err := Loopback(context.Background(), cfg, m, src, dst, nil)
	if err != nil {
		t.Fatalf("the session failed over spoiled frames: %v", err)
	}
	if spoiled != 2 {
		t.Fatalf("spoiled %d frames, want 2", spoiled)
	}
	// dst checks every write against the synthetic content, so the
	// flipped payload, written, would be an error here.
	if errs := dst.Errors(); len(errs) != 0 {
		t.Fatalf("a spoiled payload reached the destination: %v", errs)
	}
	if res.Bytes != m.TotalBytes() {
		t.Fatalf("transfer with spoiled frames: bytes=%d, want %d", res.Bytes, m.TotalBytes())
	}
	if res.ResentBytes == 0 {
		t.Fatal("no bytes re-sent: the spoiled frames were not dropped")
	}
}

func TestLoopbackWithRateShaping(t *testing.T) {
	if testing.Short() {
		t.Skip("timed test skipped in -short mode")
	}
	src := fsim.NewSyntheticStore()
	dst := fsim.NewSyntheticStore()
	cfg := testConfig()
	// Cap the link at 200 Mbps = 25 MB/s. 8 MB should take ≳0.3s.
	cfg.Shaping.LinkMbps = 200
	cfg.InitialThreads = 4
	m := workload.LargeFiles(4, 2<<20)
	start := time.Now()
	res, err := Loopback(context.Background(), cfg, m, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 250*time.Millisecond {
		t.Fatalf("transfer finished in %v; link shaping not effective", elapsed)
	}
	// Goodput must not exceed the link cap by more than burst slack.
	if res.AvgMbps > 260 {
		t.Fatalf("goodput %v Mbps exceeds 200 Mbps cap", res.AvgMbps)
	}
}

// The first tuple obeys MaxThreads like every later one: a config whose
// InitialThreads and Conns exceed it starts at the cap, not above it.
func TestSenderFirstTupleHonoursMaxThreads(t *testing.T) {
	cfg := testConfig()
	cfg.InitialThreads, cfg.Conns, cfg.MaxThreads = 8, 4, 2
	cfg.Shaping.LinkMbps = 400 // several ticks
	var (
		once  sync.Once
		first State
	)
	cfg.Hooks.OnTick = func(st State) { once.Do(func() { first = st }) }
	m := workload.LargeFiles(6, 2<<20)
	if _, err := Loopback(context.Background(), cfg, m, fsim.NewSyntheticStore(), fsim.NewSyntheticStore(), nil); err != nil {
		t.Fatal(err)
	}
	once.Do(func() { t.Fatal("no tick ran") })
	for i, n := range first.N {
		if n < 1 || n > cfg.MaxThreads {
			t.Fatalf("first tick's tuple %v: stage %d has %d threads, MaxThreads is %d", first.N, i, n, cfg.MaxThreads)
		}
	}
}

func TestLoopbackControllerTracesRecorded(t *testing.T) {
	src := fsim.NewSyntheticStore()
	dst := fsim.NewSyntheticStore()
	cfg := testConfig()
	cfg.Shaping.LinkMbps = 400 // slow it down so several ticks happen
	m := workload.LargeFiles(6, 2<<20)
	res, err := Loopback(context.Background(), cfg, m, src, dst, static.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cc_read", "cc_net", "cc_write", "thr_read", "thr_net", "thr_write"} {
		s := res.Recorder.Series(name)
		if len(s.Points()) == 0 {
			t.Fatalf("series %s empty", name)
		}
	}
	// Static controller must pin concurrency at 4 after the first tick.
	pts := res.Recorder.Series("cc_read").Points()
	last := pts[len(pts)-1]
	if last.V != 4 {
		t.Fatalf("static controller: final cc_read=%v want 4", last.V)
	}
	if res.Controller != "static" {
		t.Fatalf("controller name %q", res.Controller)
	}
}

func TestLoopbackWithMarlinController(t *testing.T) {
	if testing.Short() {
		t.Skip("timed test skipped in -short mode")
	}
	src := fsim.NewSyntheticStore()
	dst := fsim.NewSyntheticStore()
	dst.Verify = true
	cfg := testConfig()
	cfg.Shaping = Shaping{
		ReadPerThreadMbps:  100,
		NetPerStreamMbps:   150,
		WritePerThreadMbps: 200,
		LinkMbps:           800,
	}
	m := workload.LargeFiles(8, 2<<20)
	res, err := Loopback(context.Background(), cfg, m, src, dst, marlin.New())
	if err != nil {
		t.Fatal(err)
	}
	if len(dst.Errors()) != 0 {
		t.Fatalf("corruption under dynamic resizing: %v", dst.Errors()[0])
	}
	// Marlin must have moved concurrency off the initial value.
	vs := res.Recorder.Series("cc_read").Values()
	moved := false
	for _, v := range vs {
		if v != vs[0] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("marlin never adjusted concurrency")
	}
}

func TestLoopbackContextCancellation(t *testing.T) {
	src := fsim.NewSyntheticStore()
	dst := fsim.NewSyntheticStore()
	cfg := testConfig()
	cfg.Shaping.LinkMbps = 10 // painfully slow: 10 Mb/s
	m := workload.LargeFiles(4, 4<<20)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_, err := Loopback(ctx, cfg, m, src, dst, nil)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestDynamicResizeMidTransfer(t *testing.T) {
	// A controller that ramps all stages up and down repeatedly to stress
	// pool resizing under load.
	src := fsim.NewSyntheticStore()
	dst := fsim.NewSyntheticStore()
	dst.Verify = true
	cfg := testConfig()
	cfg.ProbeInterval = 20 * time.Millisecond
	cfg.Shaping.LinkMbps = 600
	m := workload.LargeFiles(8, 2<<20)
	step := 0
	ctrl := controllerFunc(func(s env.State) env.Action {
		step++
		n := 1 + (step*3)%10
		return env.ActionOf(n, 1+n%3, 11-n, n)
	})
	_, err := Loopback(context.Background(), cfg, m, src, dst, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	if dst.TotalWritten() != m.TotalBytes() {
		t.Fatalf("written=%d want %d", dst.TotalWritten(), m.TotalBytes())
	}
	if len(dst.Errors()) != 0 {
		t.Fatalf("corruption under churn: %v", dst.Errors()[0])
	}
}

// controllerFunc adapts a function to env.Controller.
type controllerFunc func(env.State) env.Action

func (f controllerFunc) Name() string                  { return "test" }
func (f controllerFunc) Decide(s env.State) env.Action { return f(s) }

func TestMarlinDecideBootstrapsUpward(t *testing.T) {
	o := marlin.New()
	s := env.State{N: [env.StageCount]int{1, 1, 1, 1}, Throughput: env.StageVec{10, 10, 10, 10}}
	a := o.Decide(s)
	for i, n := range a.N {
		if n != 2 {
			t.Fatalf("stage %d: bootstrap action %d want 2", i, n)
		}
	}
}

func TestMarlinReversesOnUtilityDrop(t *testing.T) {
	o := marlin.New()
	// Step 1: bootstrap from n=4.
	o.Decide(env.State{N: [env.StageCount]int{4, 4, 4, 4}, Throughput: env.StageVec{100, 100, 100, 100}})
	// Step 2: we moved to n=5 and throughput collapsed → utility drop →
	// next decision must go below 5.
	a := o.Decide(env.State{N: [env.StageCount]int{5, 5, 5, 5}, Throughput: env.StageVec{20, 20, 20, 20}})
	for i, n := range a.N {
		if n >= 5 {
			t.Fatalf("stage %d: no reversal after utility drop (n=%d)", i, n)
		}
	}
}

func TestStaticControllerIgnoresState(t *testing.T) {
	c := static.New(4)
	a := c.Decide(env.State{Throughput: env.ThroughputVec(1, 2, 3)})
	if a != env.ActionOf(4, 4, 1, 4) {
		t.Fatalf("static action %v", a.N)
	}
	if static.New(0).Concurrency != 1 {
		t.Fatal("zero concurrency should clamp to 1")
	}
}

func TestMonolithicWrapperCouplesStages(t *testing.T) {
	inner := controllerFunc(func(env.State) env.Action {
		return env.ActionOf(2, 1, 9, 5)
	})
	mono := &static.Monolithic{Inner: inner}
	a := mono.Decide(env.State{})
	if a != env.ActionOf(9, 9, 1, 9) {
		t.Fatalf("monolithic action %v want all 9", a.N)
	}
}

// stallingController keeps the tuple it is shown and records every state
// it decides on; its second decision stalls for stall, as a slow policy
// would, so the tick after it comes late.
type stallingController struct {
	stall  time.Duration
	states []env.State
}

func (c *stallingController) Name() string { return "stalling" }

func (c *stallingController) Decide(s env.State) env.Action {
	c.states = append(c.states, s)
	if len(c.states) == 2 {
		time.Sleep(c.stall)
	}
	return env.Action{N: s.N}
}

// The controller's rates are taken over the window each sample covers,
// not over one probe interval: after a decision that stalls the control
// loop for three intervals, the read stage, held at its aggregate cap,
// still reports about the cap.
func TestControllerRatesSpanMeasuredWindow(t *testing.T) {
	cfg := testConfig()
	cfg.InitialThreads = 1
	cfg.ProbeInterval = 250 * time.Millisecond
	cfg.Shaping.ReadAggMbps = 40 // 5 MB/s: about 1.25 MB a tick against 0.1 MB of burst
	ctl := &stallingController{stall: 3 * cfg.ProbeInterval}
	m := workload.LargeFiles(4, 2<<20) // 8 MB, ≈1.6 s at the cap
	if _, err := Loopback(context.Background(), cfg, m, fsim.NewSyntheticStore(), fsim.NewSyntheticStore(), ctl); err != nil {
		t.Fatal(err)
	}
	if len(ctl.states) < 3 {
		t.Fatalf("controller decided %d times; the stalled decision needs a tick after it", len(ctl.states))
	}
	for i, st := range ctl.states {
		if r := st.Throughput[env.StageRead]; r > 1.25*cfg.Shaping.ReadAggMbps {
			t.Errorf("decision %d saw a read rate of %.1f Mbps under a %.0f Mbps cap", i, r, cfg.Shaping.ReadAggMbps)
		}
	}
}
