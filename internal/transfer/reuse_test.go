package transfer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"automdt/internal/fsim"
	"automdt/internal/wire"
	"automdt/internal/workload"
)

// Connection reuse: sessions run one after another on the connections an
// earlier session to the same endpoint left open. The control connection
// starts a session on each Hello that follows a Done, and a preamble at a
// frame boundary moves a data connection to the session it names.

// startVerifyingEndpoint serves an endpoint whose synthetic destination
// checks every written byte against the content its file name implies.
func startVerifyingEndpoint(t *testing.T, cfg Config) (*Receiver, *fsim.SyntheticStore) {
	t.Helper()
	dst := fsim.NewSyntheticStore()
	dst.Verify = true
	recv := NewReceiver(cfg, dst)
	if err := recv.Listen("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	served := make(chan struct{})
	go func() {
		defer close(served)
		recv.Serve(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-served
	})
	return recv, dst
}

// accepted returns how many control and data connections the endpoint
// has accepted.
func accepted(t *testing.T, recv *Receiver) (ctrl, data float64) {
	t.Helper()
	snap := recv.MetricsSnapshot()
	return gauge(t, snap, "automdt_endpoint_conns_accepted_total", "control"),
		gauge(t, snap, "automdt_endpoint_conns_accepted_total", "data")
}

// Three sessions in a row through one pool run on one control and one
// data connection, each byte-correct. A session that wraps its
// connections dials its own and closes them, leaving the pool alone.
func TestSessionsReusePooledConnections(t *testing.T) {
	recv, dst := startVerifyingEndpoint(t, testConfig())
	pool := new(ConnPool)
	defer pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	run := func(i int, wrap bool) {
		t.Helper()
		cfg := testConfig()
		var dataConns atomic.Int32
		cfg.Hooks.OnDataConn = func(int, net.Conn) { dataConns.Add(1) }
		if wrap {
			cfg.WrapConn = func(_ string, c net.Conn) net.Conn { return c }
		}
		name := fmt.Sprintf("seq-%d", i)
		m := workload.Manifest{{Name: name, Size: 3<<20 + 100}}
		send := &Sender{Cfg: cfg, Store: fsim.NewSyntheticStore(), Manifest: m, Pool: pool}
		res, err := send.Run(ctx, recv.DataAddr(), recv.CtrlAddr())
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if res.Bytes != m.TotalBytes() || dst.WrittenBytes(name) != m.TotalBytes() {
			t.Fatalf("session %d moved %d bytes and the destination holds %d, want %d",
				i, res.Bytes, dst.WrittenBytes(name), m.TotalBytes())
		}
		if n := dataConns.Load(); n != 1 {
			t.Fatalf("session %d: OnDataConn fired %d times, want 1", i, n)
		}
	}
	for i := 0; i < 3; i++ {
		run(i, false)
	}
	if c, d := accepted(t, recv); c != 1 || d != 1 {
		t.Fatalf("three sessions made the endpoint accept %v control and %v data connections, want 1 and 1", c, d)
	}
	if c, d := pool.Idle(); c != 1 || d != 1 {
		t.Fatalf("pool holds %d control and %d data connections, want 1 and 1", c, d)
	}
	run(3, true)
	if c, d := accepted(t, recv); c != 2 || d != 2 {
		t.Fatalf("after a wrapping session the endpoint accepted %v control and %v data connections, want 2 and 2", c, d)
	}
	if c, d := pool.Idle(); c != 1 || d != 1 {
		t.Fatalf("after a wrapping session the pool holds %d control and %d data connections, want 1 and 1", c, d)
	}
	run(4, false)
	if c, d := accepted(t, recv); c != 2 || d != 2 {
		t.Fatalf("endpoint accepted %v control and %v data connections, want 2 and 2", c, d)
	}
	if errs := dst.Errors(); len(errs) > 0 {
		t.Fatalf("destination saw %d corrupt writes, first: %v", len(errs), errs[0])
	}
}

// rawPeer drives an endpoint by hand over one control connection and one
// data connection, both reused across the sessions it runs.
type rawPeer struct {
	t    *testing.T
	raw  net.Conn
	ctrl *wire.Conn
	data net.Conn
	fw   wire.FrameWriter
}

func dialPeer(t *testing.T, recv *Receiver) *rawPeer {
	t.Helper()
	raw, err := net.Dial("tcp", recv.CtrlAddr())
	if err != nil {
		t.Fatal(err)
	}
	data, err := net.Dial("tcp", recv.DataAddr())
	if err != nil {
		t.Fatal(err)
	}
	p := &rawPeer{t: t, raw: raw, ctrl: wire.NewConn(raw), data: data}
	t.Cleanup(func() {
		raw.Close()
		data.Close()
	})
	return p
}

// oneChunkHello asks for a session over one file of n 64 KiB chunks.
func oneChunkHello(name string, chunks int) wire.Hello {
	return wire.Hello{
		Files:        []wire.FileInfo{{Name: name, Size: int64(chunks) * 64 << 10}},
		ChunkBytes:   64 << 10,
		ProtoVersion: wire.ProtoVersion,
	}
}

// chunkFrame is chunk i of a file, with the content its name implies.
func chunkFrame(name string, i int) wire.Frame {
	data := make([]byte, 64<<10)
	fsim.FillContent(name, int64(i)*64<<10, data)
	return wire.Frame{FileID: 0, Offset: int64(i) * 64 << 10, Data: data, Checksum: true}
}

// hello sends h and returns the Welcome.
func (p *rawPeer) hello(h wire.Hello) *wire.Welcome {
	p.t.Helper()
	if err := p.ctrl.Send(wire.Message{Hello: &h}); err != nil {
		p.t.Fatal(err)
	}
	m := recvReply(p.t, p.ctrl)
	if m.Welcome == nil {
		p.t.Fatalf("session refused: %s", m.Status.Error)
	}
	return m.Welcome
}

// write puts a preamble (when token is set) and frames on the data
// connection in one write.
func (p *rawPeer) write(token string, frames ...wire.Frame) {
	p.t.Helper()
	var b bytes.Buffer
	if token != "" {
		if err := wire.WriteDataPreamble(&b, token); err != nil {
			p.t.Fatal(err)
		}
	}
	for _, f := range frames {
		if err := p.fw.Write(&b, f); err != nil {
			p.t.Fatal(err)
		}
	}
	if _, err := p.data.Write(b.Bytes()); err != nil {
		p.t.Fatal(err)
	}
}

// done reads control messages until the session's Done.
func (p *rawPeer) done() {
	p.t.Helper()
	for {
		m, err := p.ctrl.Recv()
		if err != nil {
			p.t.Fatalf("control channel died before Done: %v", err)
		}
		if m.Status != nil && m.Status.Error != "" {
			p.t.Fatalf("session failed: %s", m.Status.Error)
		}
		if m.Status != nil && m.Status.Done {
			return
		}
	}
}

// session runs one whole session of a file of chunks chunks.
func (p *rawPeer) session(name string, chunks int) {
	p.t.Helper()
	w := p.hello(oneChunkHello(name, chunks))
	var frames []wire.Frame
	for i := 0; i < chunks; i++ {
		frames = append(frames, chunkFrame(name, i))
	}
	p.write(w.DataToken, frames...)
	p.done()
}

// hangsUp reports whether the endpoint closes c within 10 s.
func hangsUp(c net.Conn) bool {
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	defer c.SetReadDeadline(time.Time{})
	_, err := io.Copy(io.Discard, c)
	return !errors.Is(err, os.ErrDeadlineExceeded)
}

// A SetWriters, LedgerPull or FileSum that reaches the endpoint after the
// session's Done belongs to no session: nothing answers it, and the next
// Hello on the connection starts the next session.
func TestControlStragglersAfterDoneAreDropped(t *testing.T) {
	recv, dst := startVerifyingEndpoint(t, testConfig())
	p := dialPeer(t, recv)
	p.session("straggle-a", 2)
	for _, m := range []wire.Message{
		{SetWriters: &wire.SetWriters{N: 3}},
		{LedgerPull: &wire.LedgerPull{Seq: 7}},
		{FileSum: &wire.FileSum{FileID: 0, CRC: 1}},
	} {
		if err := p.ctrl.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	p.raw.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if m, err := p.ctrl.Recv(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the endpoint answered a message sent after Done: %+v, %v", m, err)
	}
	p.raw.SetReadDeadline(time.Time{})
	p.session("straggle-b", 1)
	// The endpoint counts a session after its Done leaves.
	waitFor(t, func() bool {
		return gauge(t, recv.MetricsSnapshot(), "automdt_endpoint_sessions_total", "completed") == 2
	})
	if errs := dst.Errors(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
}

// A Hello while a session is bound to the control connection fails that
// session, and the endpoint closes the connection after saying why.
func TestSecondHelloClosesControlConnection(t *testing.T) {
	recv, _ := startVerifyingEndpoint(t, testConfig())
	p := dialPeer(t, recv)
	p.hello(oneChunkHello("bound", 2))
	h := oneChunkHello("intruder", 1)
	if err := p.ctrl.Send(wire.Message{Hello: &h}); err != nil {
		t.Fatal(err)
	}
	var why string
	for {
		m, err := p.ctrl.Recv()
		if err != nil {
			break
		}
		if m.Status != nil && m.Status.Error != "" {
			why = m.Status.Error
		}
	}
	if !strings.Contains(why, "Hello while a session runs") {
		t.Fatalf("endpoint said %q before closing, want the second Hello named", why)
	}
	waitFor(t, func() bool {
		return gauge(t, recv.MetricsSnapshot(), "automdt_endpoint_sessions_total", "failed") == 1
	})
}

// A Hello refused after a completed session closes the connection, as a
// refused first Hello does.
func TestRefusedHelloClosesReusedControlConnection(t *testing.T) {
	recv, _ := startVerifyingEndpoint(t, testConfig())
	p := dialPeer(t, recv)
	p.session("before-refusal", 1)
	h := oneChunkHello("refused", 1)
	h.ProtoVersion = wire.ProtoVersion - 1
	if err := p.ctrl.Send(wire.Message{Hello: &h}); err != nil {
		t.Fatal(err)
	}
	m := recvReply(t, p.ctrl)
	if m.Status == nil || !strings.Contains(m.Status.Error, fmt.Sprintf("sender speaks protocol %d", wire.ProtoVersion-1)) {
		t.Fatalf("reply %+v, want a refusal naming the generation", m)
	}
	if !hangsUp(p.raw) {
		t.Fatal("endpoint kept the control connection open after refusing its Hello")
	}
}

// A preamble at a frame boundary moves a data connection to the session
// it names. A duplicate frame of the finished session that precedes it
// goes nowhere: its lease comes back, and the next session stages nothing
// from it (had it, the destination would hold the first file's bytes
// under the second's name). A preamble naming no live session closes
// the connection.
func TestPreambleRebindsDataConnection(t *testing.T) {
	cfg := testConfig()
	cfg.Arena = NewArena(16 << 20)
	recv, dst := startVerifyingEndpoint(t, cfg)
	p := dialPeer(t, recv)
	p.session("rebind-a", 2)

	w := p.hello(oneChunkHello("rebind-b", 2))
	p.write("", chunkFrame("rebind-a", 0)) // a late duplicate of the finished session
	p.write(w.DataToken, chunkFrame("rebind-b", 0), chunkFrame("rebind-b", 1))
	p.done()

	if errs := dst.Errors(); len(errs) > 0 {
		t.Fatalf("the duplicate reached the next session: %v", errs[0])
	}
	for _, name := range []string{"rebind-a", "rebind-b"} {
		if got := dst.WrittenBytes(name); got != 2*64<<10 {
			t.Fatalf("%s holds %d bytes, want %d", name, got, 2*64<<10)
		}
	}
	if c, d := accepted(t, recv); c != 1 || d != 1 {
		t.Fatalf("endpoint accepted %v control and %v data connections, want 1 and 1", c, d)
	}
	waitFor(t, func() bool { return cfg.Arena.Stats().InUseBytes == 0 })

	p.write(wire.NewDataToken())
	if !hangsUp(p.data) {
		t.Fatal("endpoint kept a data connection rebound to an unknown token open")
	}
}

// Bytes read ahead of a rebinding preamble carry over: however the
// connection splits a stream of one session's frames, a preamble and the
// next session's frames, each session stages exactly its own frames.
func TestReadAheadCarriesOverRebind(t *testing.T) {
	m := readConnManifest()
	frames := readConnFrames(m)
	first, second := frames[:40], frames[40:]
	token := wire.NewDataToken()
	var stream bytes.Buffer
	stream.Write(encodeFrames(t, first))
	if err := wire.WriteDataPreamble(&stream, token); err != nil {
		t.Fatal(err)
	}
	stream.Write(encodeFrames(t, second))
	for _, tc := range []struct {
		name string
		conn func() io.Reader
	}{
		{"whole reads", func() io.Reader { return bytes.NewReader(stream.Bytes()) }},
		{"one byte a read", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream.Bytes())) }},
		{"half of each read", func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream.Bytes())) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := newReadConnSession(m), newReadConnSession(m)
			src := newFrameSource(tc.conn())
			defer src.release()
			if !a.readFrames(src) {
				t.Fatal("the preamble did not end the first session's frames")
			}
			if got := src.fr.Token(); fmt.Sprintf("%x", got[:]) != token {
				t.Fatalf("preamble token %x, want %s", got, token)
			}
			if b.readFrames(src) {
				t.Fatal("the second session's stream asked for another rebind")
			}
			if err := sameFrames(staged(a), first); err != nil {
				t.Fatalf("first session: %v", err)
			}
			if err := sameFrames(staged(b), second); err != nil {
				t.Fatalf("second session: %v", err)
			}
			for _, s := range []*rsession{a, b} {
				if s.Err() != nil {
					t.Fatal(s.Err())
				}
				if inUse := s.arena.Stats().InUseBytes; inUse != 0 {
					t.Fatalf("%d arena bytes still leased", inUse)
				}
			}
		})
	}
}

// Connections that went stale in the pool — the endpoint closed them
// while they sat idle — are dropped and redialed, and the next session
// succeeds.
func TestStalePooledConnectionsRedial(t *testing.T) {
	recv, dst := startVerifyingEndpoint(t, testConfig())
	pool := new(ConnPool)
	defer pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	run := func(name string) {
		t.Helper()
		m := workload.Manifest{{Name: name, Size: 1 << 20}}
		send := &Sender{Cfg: testConfig(), Store: fsim.NewSyntheticStore(), Manifest: m, Pool: pool}
		if _, err := send.Run(ctx, recv.DataAddr(), recv.CtrlAddr()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	run("stale-1")
	if c, d := pool.Idle(); c != 1 || d != 1 {
		t.Fatalf("pool holds %d control and %d data connections, want 1 and 1", c, d)
	}
	// The first session's teardown has handed its data connection back
	// to the endpoint's idle set once it is counted complete.
	waitFor(t, func() bool {
		return gauge(t, recv.MetricsSnapshot(), "automdt_endpoint_sessions_total", "completed") == 1
	})
	recv.closeIdle()
	// The data connection's death watch notices the close while it idles.
	waitFor(t, func() bool {
		pool.mu.Lock()
		defer pool.mu.Unlock()
		d := pool.data[0]
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.gone
	})
	run("stale-2")
	if c, d := accepted(t, recv); c != 2 || d != 2 {
		t.Fatalf("endpoint accepted %v control and %v data connections, want 2 and 2", c, d)
	}
	if got := gauge(t, recv.MetricsSnapshot(), "automdt_endpoint_sessions_total", "failed"); got != 0 {
		t.Fatalf("%v sessions failed", got)
	}
	if errs := dst.Errors(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
}

// A session that completed frees its admission slot before its Done
// leaves: back-to-back sessions on the same connections never find an
// endpoint capped at one session full.
func TestReusedConnectionFindsAdmissionSlotFree(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSessions = 1
	recv, _ := startVerifyingEndpoint(t, cfg)
	pool := new(ConnPool)
	defer pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 50; i++ {
		m := workload.Manifest{{Name: fmt.Sprintf("slot-%d", i), Size: 64 << 10}}
		send := &Sender{Cfg: testConfig(), Store: fsim.NewSyntheticStore(), Manifest: m, Pool: pool}
		if _, err := send.Run(ctx, recv.DataAddr(), recv.CtrlAddr()); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
}

// Concurrent sessions share one pool but never a connection: each takes
// idle connections or dials its own, and the endpoint accepts no more of
// either kind than sessions ever ran at once.
func TestConcurrentSessionsSharePool(t *testing.T) {
	recv, dst := startVerifyingEndpoint(t, testConfig())
	pool := new(ConnPool)
	defer pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const clients, sessions = 4, 10
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			for i := 0; i < sessions; i++ {
				m := workload.Manifest{{Name: fmt.Sprintf("shared-%d-%d", c, i), Size: 256 << 10}}
				send := &Sender{Cfg: testConfig(), Store: fsim.NewSyntheticStore(), Manifest: m, Pool: pool}
				if _, err := send.Run(ctx, recv.DataAddr(), recv.CtrlAddr()); err != nil {
					errs <- fmt.Errorf("client %d session %d: %w", c, i, err)
					return
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if c, d := accepted(t, recv); c > clients || d > clients {
		t.Fatalf("%d clients made the endpoint accept %v control and %v data connections, want at most %d each", clients, c, d, clients)
	}
	if errs := dst.Errors(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
}
