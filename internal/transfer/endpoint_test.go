package transfer

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"automdt/internal/fsim"
	"automdt/internal/metrics"
	"automdt/internal/wire"
	"automdt/internal/workload"
)

// gauge extracts one sample value from a snapshot by name and optional
// single label value.
func gauge(t *testing.T, snap metrics.Snapshot, name, labelValue string) float64 {
	t.Helper()
	for _, s := range snap.Samples() {
		if s.Name != name {
			continue
		}
		if labelValue == "" || (len(s.Labels) > 0 && s.Labels[0].Value == labelValue) {
			return s.Value
		}
	}
	t.Fatalf("no sample %s{%s}", name, labelValue)
	return 0
}

// The tentpole acceptance test: one Receiver.Serve endpoint completes
// nine concurrent sessions from distinct senders while one session is
// killed mid-run and resumed against the same endpoint. Sibling sessions
// must complete unperturbed and per-session ledgers must never
// cross-contaminate.
func TestEndpointServesConcurrentSessions(t *testing.T) {
	dir := t.TempDir()
	dst, err := fsim.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig()
	cfg.ProbeInterval = 25 * time.Millisecond // frequent ledger persistence
	cfg.InitialThreads = 2
	recv := NewReceiver(cfg, dst)
	done := make(chan SessionResult, 64)
	recv.OnSessionDone = func(r SessionResult) { done <- r }
	if err := recv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	srvCtx, srvCancel := context.WithCancel(context.Background())
	defer srvCancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- recv.Serve(srvCtx) }()

	const peers = 9
	const killed = 0 // session killed mid-run and resumed
	session := func(i int) string { return fmt.Sprintf("sess-%02d", i) }
	manifests := make([]workload.Manifest, peers)
	for i := range manifests {
		n, size := 3, int64(512<<10)
		if i == killed {
			n, size = 4, 2<<20 // big enough for the kill to land mid-flight
		}
		var m workload.Manifest
		for j := 0; j < n; j++ {
			// Per-session name prefixes: the endpoint shares one store, so
			// tenants namespace their files.
			m = append(m, workload.File{Name: fmt.Sprintf("s%02d/f%d.dat", i, j), Size: size})
		}
		manifests[i] = m
	}
	killTotal := manifests[killed].TotalBytes()

	// Kill the victim's sender once its persisted ledger shows real
	// progress — a mid-dataset death of one tenant among nine.
	killCtx, kill := context.WithCancel(context.Background())
	defer kill()
	go func() {
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			if l, err := LoadSessionLedger(dst, session(killed)); err == nil && l.CommittedBytes() > killTotal/4 {
				kill()
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		kill()
	}()

	var wg sync.WaitGroup
	errs := make([]error, peers)
	for i := 0; i < peers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scfg := cfg
			scfg.SessionID = session(i)
			ctx := context.Background()
			if i == killed {
				scfg.Shaping.LinkMbps = 200 // ~25 MB/s so the kill lands mid-flight
				ctx = killCtx
			}
			send := &Sender{Cfg: scfg, Store: fsim.NewSyntheticStore(), Manifest: manifests[i]}
			runCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
			defer cancel()
			_, errs[i] = send.Run(runCtx, recv.Addr())
		}(i)
	}
	wg.Wait()

	if errs[killed] == nil {
		t.Fatal("killed sender completed; the kill did not land mid-flight")
	}
	for i := 0; i < peers; i++ {
		if i != killed && errs[i] != nil {
			t.Fatalf("sibling session %d failed alongside the killed one: %v", i, errs[i])
		}
	}

	// Collect every session's receiver-side result (the victim's arrives
	// when its teardown finishes persisting the ledger).
	results := make(map[string]SessionResult, peers)
	timeout := time.After(30 * time.Second)
	for len(results) < peers {
		select {
		case r := <-done:
			results[r.SessionID] = r
		case <-timeout:
			t.Fatalf("only %d of %d session results arrived", len(results), peers)
		}
	}
	for i := 0; i < peers; i++ {
		r, ok := results[session(i)]
		if !ok {
			t.Fatalf("no receiver-side result for %s", session(i))
		}
		if i == killed {
			if r.Err == nil {
				t.Fatal("killed session reported success at the receiver")
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("receiver failed sibling %s: %v", r.SessionID, r.Err)
		}
	}

	// Ledger isolation: the victim's persisted ledger describes exactly
	// its own namespaced files — nothing leaked in from the eight
	// sessions that shared the endpoint.
	l, err := LoadSessionLedger(dst, session(killed))
	if err != nil {
		t.Fatalf("killed session left no ledger to resume from: %v", err)
	}
	if err := l.MatchesManifest(manifests[killed]); err != nil {
		t.Fatalf("killed session's ledger cross-contaminated: %v", err)
	}
	for _, f := range l.Files {
		if !strings.HasPrefix(f.Name, fmt.Sprintf("s%02d/", killed)) {
			t.Fatalf("foreign file %q in session ledger", f.Name)
		}
	}
	committed := l.CommittedBytes()
	if committed <= 0 || committed >= killTotal {
		t.Fatalf("victim committed %d of %d; kill did not land mid-flight", committed, killTotal)
	}
	// Completed siblings must have dropped their ledgers.
	for i := 0; i < peers; i++ {
		if i == killed {
			continue
		}
		if _, err := dst.LoadLedger(session(i)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("completed session %s still has a ledger (err=%v)", session(i), err)
		}
	}

	// Resume the victim against the SAME still-running endpoint.
	rcfg := cfg
	rcfg.SessionID = session(killed)
	resumeCtx, cancelResume := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelResume()
	send := &Sender{Cfg: rcfg, Store: fsim.NewSyntheticStore(), Manifest: manifests[killed]}
	res, err := send.Run(resumeCtx, recv.Addr())
	if err != nil {
		t.Fatalf("resume against live endpoint failed: %v", err)
	}
	if !res.Resumed || res.SkippedBytes <= 0 {
		t.Fatalf("second run did not resume the ledger: %+v", res)
	}
	if _, err := dst.LoadLedger(session(killed)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("resumed session's ledger not removed on completion (err=%v)", err)
	}

	// Every destination byte of every tenant is correct.
	for i, m := range manifests {
		for _, f := range m {
			got, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(f.Name)))
			if err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
			want := make([]byte, f.Size)
			fsim.FillContent(f.Name, 0, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("session %d: %s corrupt", i, f.Name)
			}
		}
	}

	snap := recv.MetricsSnapshot()
	if got := gauge(t, snap, "automdt_endpoint_sessions_total", "admitted"); got != peers+1 {
		t.Fatalf("admitted %v sessions, want %d", got, peers+1)
	}
	if got := gauge(t, snap, "automdt_endpoint_sessions_total", "completed"); got != peers {
		t.Fatalf("completed %v sessions, want %d", got, peers)
	}
	if got := gauge(t, snap, "automdt_endpoint_sessions_total", "failed"); got != 1 {
		t.Fatalf("failed %v sessions, want 1", got)
	}

	srvCancel()
	<-serveErr
}

// helloConn opens a raw control connection and sends a Hello, returning
// the connection for reply inspection.
func helloConn(t *testing.T, addr string, h wire.Hello) *wire.Conn {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(raw)
	if err := c.Send(wire.Message{Hello: &h}); err != nil {
		t.Fatal(err)
	}
	return c
}

// recvReply reads control messages until a Welcome or an errored Status
// arrives.
func recvReply(t *testing.T, c *wire.Conn) wire.Message {
	t.Helper()
	for {
		m, err := c.Recv()
		if err != nil {
			t.Fatalf("control channel died before a reply: %v", err)
		}
		if m.Welcome != nil || (m.Status != nil && m.Status.Error != "") {
			return m
		}
	}
}

// Admission cap: sessions beyond Config.MaxSessions are rejected at the
// handshake with a clear error, not queued or dropped.
func TestEndpointAdmissionCap(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSessions = 2
	recv := NewReceiver(cfg, fsim.NewSyntheticStore())
	if err := recv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	go recv.Serve(ctx)

	hello := wire.Hello{
		Files:        []wire.FileInfo{{Name: "pin.dat", Size: 1 << 20}},
		ChunkBytes:   64 << 10,
		ProtoVersion: wire.ProtoVersion,
	}
	// Two admitted sessions pin the cap (no data flows, so they stay
	// active); the third Hello must bounce.
	for i := 0; i < 2; i++ {
		c := helloConn(t, recv.Addr(), hello)
		defer c.Close()
		if m := recvReply(t, c); m.Welcome == nil {
			t.Fatalf("session %d rejected below the cap: %+v", i, m)
		}
	}
	c := helloConn(t, recv.Addr(), hello)
	defer c.Close()
	m := recvReply(t, c)
	if m.Status == nil || !strings.Contains(m.Status.Error, "capacity") {
		t.Fatalf("third session not rejected with a capacity error: %+v", m)
	}
	if got := gauge(t, recv.MetricsSnapshot(), "automdt_endpoint_sessions_total", "rejected"); got != 1 {
		t.Fatalf("rejected gauge %v, want 1", got)
	}
}

// startEndpoint serves a multi-session endpoint until the test ends.
func startEndpoint(t *testing.T, cfg Config) *Receiver {
	t.Helper()
	recv := NewReceiver(cfg, fsim.NewSyntheticStore())
	if err := recv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	go recv.Serve(ctx)
	return recv
}

// The Hello is outside input that sizes the session. One whose manifest
// breaks a bound is refused before the Welcome, with an errored Status
// naming the field, and the endpoint goes on serving. The MaxInt64 row
// is the one that matters most: admitted, its first frame would make the
// ledger size a chunk bitmap no process can allocate, and the panic
// would take every sibling session with it. Bytes that are not a control
// message at all — a length above wire.MaxControlBytes, a header
// announcing just under it and then EOF, a stray HTTP request — get the
// connection closed before admission, with no reply. Every refusal
// leaves nothing behind (expectRefusal).
func TestEndpointRefusesHostileHello(t *testing.T) {
	cfg := testConfig()
	cfg.Arena = NewArena(64 << 20)
	recv := startEndpoint(t, cfg)
	idle := idleGoroutines(t, recv)
	one := []wire.FileInfo{{Name: "h.dat", Size: 1 << 20}}
	rows := []struct {
		name  string
		chunk int
		files []wire.FileInfo
		want  string
	}{
		{"chunk below the floor", minHelloChunk - 1, one, "ChunkBytes"},
		{"chunk above MaxChunk", wire.MaxChunk + 1, one, "ChunkBytes"},
		{"negative size", 64 << 10, []wire.FileInfo{{Name: "neg.dat", Size: -1}}, "Size"},
		{"too many files", 64 << 10, make([]wire.FileInfo, maxHelloFiles+1), "Files"},
		{"too many chunks", minHelloChunk, []wire.FileInfo{{Name: "big.dat", Size: (maxHelloChunks + 1) * minHelloChunk}}, "chunks"},
		{"MaxInt64 size", 64 << 10, []wire.FileInfo{{Name: "max.dat", Size: math.MaxInt64}}, "chunks"},
	}
	for i, row := range rows {
		// The manifest of 2²⁰+1 files is 2 MiB on the wire and 24 MiB
		// decoded; the endpoint must read it to count it.
		maxAlloc := uint64(1 << 20)
		if len(row.files) > maxHelloFiles {
			maxAlloc = math.MaxUint64
		}
		expectRefusal(t, recv, cfg.Arena, idle, row.name, maxAlloc, func() {
			c := helloConn(t, recv.Addr(), wire.Hello{Files: row.files, ChunkBytes: row.chunk, ProtoVersion: wire.ProtoVersion})
			m := recvReply(t, c)
			c.Close()
			if m.Welcome != nil || !strings.Contains(m.Status.Error, row.want) {
				t.Fatalf("%s: welcomed=%v status=%+v, want an errored Status naming %s", row.name, m.Welcome != nil, m.Status, row.want)
			}
		})
		if got := gauge(t, recv.MetricsSnapshot(), "automdt_endpoint_sessions_total", "rejected"); got != float64(i+1) {
			t.Fatalf("%s: rejected gauge %v, want %d", row.name, got, i+1)
		}
		oneChunkOn(t, recv, func(*wire.Hello) {}, func(*wire.Status) {})
	}

	tag := controlBytes(t, wire.Message{Hello: &wire.Hello{}})[0]
	raws := []struct {
		name     string
		raw      []byte
		closeOut bool // end the stream after raw
	}{
		{"length above the cap", binary.AppendUvarint([]byte{tag}, wire.MaxControlBytes+1), false},
		{"just under the cap, then EOF", binary.AppendUvarint([]byte{tag}, wire.MaxControlBytes-1), true},
		{"unknown tag", []byte("GET / HTTP/1.1\r\n\r\n"), false},
	}
	for _, row := range raws {
		expectRefusal(t, recv, cfg.Arena, idle, row.name, 1<<20, func() {
			sendRawControl(t, recv.Addr(), row.name, row.raw, row.closeOut)
		})
		if got := gauge(t, recv.MetricsSnapshot(), "automdt_endpoint_sessions_total", "rejected"); got != float64(len(rows)) {
			t.Fatalf("%s: rejected gauge %v, want %d: bytes that are no Hello never reach admission", row.name, got, len(rows))
		}
		oneChunkOn(t, recv, func(*wire.Hello) {}, func(*wire.Status) {})
	}
}

// expectRefusal runs one hostile exchange against recv and requires it
// to leave nothing behind: no session admitted, no staging leased from
// the endpoint's arena, every goroutine it spawned gone (back to idle,
// the count with the endpoint serving and no session), and at most
// maxAlloc bytes allocated by the whole process.
func expectRefusal(t *testing.T, recv *Receiver, arena *Arena, idle int, name string, maxAlloc uint64, exchange func()) {
	t.Helper()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= idle })
	admitted := gauge(t, recv.MetricsSnapshot(), "automdt_endpoint_sessions_total", "admitted")
	leases := func() int64 { st := arena.Stats(); return st.Hits + st.Misses + st.Overflow }
	gets := leases()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	exchange()
	for i := 0; runtime.NumGoroutine() > idle; i++ {
		if i == 500 {
			t.Fatalf("%s: %d goroutines after the refusal, %d before", name, runtime.NumGoroutine(), idle)
		}
		time.Sleep(2 * time.Millisecond)
	}
	runtime.ReadMemStats(&after)
	if got := gauge(t, recv.MetricsSnapshot(), "automdt_endpoint_sessions_total", "admitted"); got != admitted {
		t.Fatalf("%s: admitted gauge went from %v to %v", name, admitted, got)
	}
	if got := leases(); got != gets {
		t.Fatalf("%s: the refusal leased %d staging buffers", name, got-gets)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxAlloc {
		t.Fatalf("%s: the refusal allocated %d bytes, limit %d", name, grew, maxAlloc)
	}
}

// idleGoroutines runs one session on recv, so the listener's accept
// loop is up, and returns the goroutine count once it has held still
// for 50 ms: the endpoint serving with no session.
func idleGoroutines(t *testing.T, recv *Receiver) int {
	t.Helper()
	oneChunkOn(t, recv, func(*wire.Hello) {}, func(*wire.Status) {})
	n := runtime.NumGoroutine()
	for still := 0; still < 25; still++ {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		}
	}
	return n
}

// controlBytes returns m as the control channel puts it on the wire.
func controlBytes(t *testing.T, m wire.Message) []byte {
	t.Helper()
	var rwc bufferConn
	if err := wire.NewConn(&rwc).Send(m); err != nil {
		t.Fatal(err)
	}
	return rwc.Bytes()
}

// bufferConn is an in-memory io.ReadWriteCloser for encoding messages.
type bufferConn struct{ bytes.Buffer }

func (*bufferConn) Close() error { return nil }

// sendRawControl writes raw to a fresh control connection, optionally
// ends the stream, and requires the endpoint to close the connection
// without sending a byte.
func sendRawControl(t *testing.T, addr, name string, raw []byte, closeOut bool) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(raw); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if closeOut {
		conn.(*net.TCPConn).CloseWrite()
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var reply [1]byte
	if n, err := conn.Read(reply[:]); n != 0 || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s: the endpoint replied %d bytes (err %v), want the connection closed with no reply", name, n, err)
	}
}

// oneChunkSession runs a one-chunk session from a raw peer whose Hello
// asks for what the caller sets, and hands every Status the endpoint
// sends to check until the session completes.
func oneChunkSession(t *testing.T, cfg Config, ask func(*wire.Hello), check func(*wire.Status)) {
	t.Helper()
	oneChunkOn(t, startEndpoint(t, cfg), ask, check)
}

// oneChunkOn is oneChunkSession against an endpoint already serving.
func oneChunkOn(t *testing.T, recv *Receiver, ask func(*wire.Hello), check func(*wire.Status)) {
	t.Helper()
	const size = 64 << 10
	h := wire.Hello{
		Files:        []wire.FileInfo{{Name: "w.dat", Size: size}},
		ChunkBytes:   size,
		ProtoVersion: wire.ProtoVersion,
	}
	ask(&h)
	c := helloConn(t, recv.Addr(), h)
	defer c.Close()
	m := recvReply(t, c)
	if m.Welcome == nil {
		t.Fatalf("session rejected: %+v", m)
	}
	data, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	if err := wire.WriteDataPreamble(data, m.Welcome.DataToken); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	if err := new(wire.FrameWriter).Write(data, wire.Frame{FileID: 0, Offset: 0, Data: payload}); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(wire.Message{FileSum: &wire.FileSum{FileID: 0, CRC: wire.PayloadCRC(payload)}}); err != nil {
		t.Fatal(err)
	}
	for {
		m, err := c.Recv()
		if err != nil {
			t.Fatalf("control channel died before the session completed: %v", err)
		}
		st := m.Status
		if st == nil {
			continue
		}
		if st.Error != "" {
			t.Fatalf("session failed: %s", st.Error)
		}
		check(st)
		if st.Done {
			return
		}
	}
}

// The Hello is outside input: one asking for a million write workers
// gets at most MaxThreads, the bound SetWriters already applies, and the
// session still completes.
func TestEndpointClampsHelloWriters(t *testing.T) {
	cfg := testConfig()
	const asked = 1 << 20
	oneChunkSession(t, cfg, func(h *wire.Hello) { h.InitialWriters = asked }, func(st *wire.Status) {
		if st.Writers < 1 || st.Writers > cfg.MaxThreads {
			t.Fatalf("Hello asked for %d writers and the endpoint runs %d, want 1..%d", asked, st.Writers, cfg.MaxThreads)
		}
	})
}

// A Hello may shrink the endpoint's staging buffer but not grow it: one
// asking for a terabyte gets the endpoint's own capacity.
func TestEndpointClampsHelloBuffer(t *testing.T) {
	cfg := testConfig()
	const asked = 1 << 40
	oneChunkSession(t, cfg, func(h *wire.Hello) { h.ReceiverBufBytes = asked }, func(st *wire.Status) {
		if st.BufFree > cfg.ReceiverBufBytes {
			t.Fatalf("Hello asked for %d staging bytes and the endpoint reports %d free, want ≤ %d", int64(asked), st.BufFree, cfg.ReceiverBufBytes)
		}
	})
}

// There is one protocol generation: a Hello announcing any other is
// answered with an errored Status naming both versions, counted as
// rejected, and registers nothing — also when the rest of it follows
// its own generation's layout, as a protocol 6 Hello's checksums flag
// does. A protocol 4 peer speaks gob, whose stream opens with neither a
// control tag nor the preamble magic: the endpoint's one listener
// closes its Hello at the first byte, before admission, with no reply,
// and counts it under no accepted-connection kind. Every refusal leaves
// nothing behind (expectRefusal).
func TestEndpointRefusesOtherGenerations(t *testing.T) {
	cfg := testConfig()
	cfg.Arena = NewArena(64 << 20)
	recv := startEndpoint(t, cfg)
	idle := idleGoroutines(t, recv)

	// Every earlier generation and the next one.
	var others []int
	for v := 0; v < wire.ProtoVersion; v++ {
		others = append(others, v)
	}
	others = append(others, wire.ProtoVersion+1)
	for _, v := range others {
		name := fmt.Sprintf("protocol %d", v)
		expectRefusal(t, recv, cfg.Arena, idle, name, 1<<20, func() {
			c := helloConn(t, recv.Addr(), wire.Hello{
				Files:        []wire.FileInfo{{Name: "pin.dat", Size: 1 << 20}},
				ChunkBytes:   64 << 10,
				ProtoVersion: v,
			})
			m := recvReply(t, c)
			c.Close()
			want := fmt.Sprintf("sender speaks protocol %d, this endpoint speaks protocol %d only", v, wire.ProtoVersion)
			if m.Status == nil || !strings.Contains(m.Status.Error, want) {
				t.Fatalf("Hello with protocol %d: reply %+v, want an error saying %q", v, m, want)
			}
		})
	}

	// A protocol 6 Hello as its senders wrote it: the version, session
	// ID, chunk bytes, writers and buffer bytes, the checksums flag,
	// then the manifest.
	v6 := binary.AppendVarint(nil, 6)
	v6 = append(v6, 0) // no session ID
	v6 = binary.AppendVarint(v6, 64<<10)
	v6 = binary.AppendVarint(v6, 1)
	v6 = binary.AppendVarint(v6, 0)
	v6 = append(v6, 1, 1, 7) // checksums, one file, a 7-byte name
	v6 = binary.AppendVarint(append(v6, "pin.dat"...), 1<<20)
	tag := controlBytes(t, wire.Message{Hello: &wire.Hello{}})[0]
	v6 = append(binary.AppendUvarint([]byte{tag}, uint64(len(v6))), v6...)
	expectRefusal(t, recv, cfg.Arena, idle, "protocol 6 Hello", 1<<20, func() {
		raw, err := net.Dial("tcp", recv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		if _, err := raw.Write(v6); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("sender speaks protocol 6, this endpoint speaks protocol %d only", wire.ProtoVersion)
		if m := recvReply(t, wire.NewConn(raw)); m.Status == nil || !strings.Contains(m.Status.Error, want) {
			t.Fatalf("protocol 6 Hello: reply %+v, want an error saying %q", m, want)
		}
	})

	var v4 bytes.Buffer
	if err := gob.NewEncoder(&v4).Encode(&wire.Message{Hello: &wire.Hello{
		Files:        []wire.FileInfo{{Name: "pin.dat", Size: 1 << 20}},
		ChunkBytes:   64 << 10,
		ProtoVersion: 4,
	}}); err != nil {
		t.Fatal(err)
	}
	accepted := func() (ctrl, data float64) {
		snap := recv.MetricsSnapshot()
		return gauge(t, snap, "automdt_endpoint_conns_accepted_total", "control"),
			gauge(t, snap, "automdt_endpoint_conns_accepted_total", "data")
	}
	ctrl0, data0 := accepted()
	expectRefusal(t, recv, cfg.Arena, idle, "protocol 4 gob Hello", 1<<20, func() {
		sendRawControl(t, recv.Addr(), "protocol 4 gob Hello", v4.Bytes(), false)
	})
	if ctrl, data := accepted(); ctrl != ctrl0 || data != data0 {
		t.Fatalf("protocol 4 gob Hello counted as an accepted connection: control %v→%v, data %v→%v", ctrl0, ctrl, data0, data)
	}

	snap := recv.MetricsSnapshot()
	if got := gauge(t, snap, "automdt_endpoint_sessions_total", "rejected"); got != float64(len(others)+1) {
		t.Fatalf("rejected gauge %v, want %d", got, len(others)+1)
	}
	if got := gauge(t, snap, "automdt_endpoint_sessions_active", ""); got != 0 {
		t.Fatalf("%v sessions active after refusals, want 0", got)
	}
}

// A retried attempt races its predecessor's teardown: the sender is
// gone but the session still holds the ledger key until the receiver
// notices the dead control channel. The retry's Hello must be admitted
// once the teardown finishes, not bounced with "already active".
func TestEndpointRetryReclaimsSessionKey(t *testing.T) {
	cfg := testConfig()
	// A long probe interval proves teardown is driven by control-channel
	// death detection, not the status tick.
	cfg.ProbeInterval = 2 * time.Second
	recv := NewReceiver(cfg, fsim.NewSyntheticStore())
	if err := recv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	go recv.Serve(ctx)

	hello := wire.Hello{
		Files:        []wire.FileInfo{{Name: "r.dat", Size: 1 << 20}},
		ChunkBytes:   64 << 10,
		ProtoVersion: wire.ProtoVersion,
		SessionID:    "retry-me",
	}
	first := helloConn(t, recv.Addr(), hello)
	if m := recvReply(t, first); m.Welcome == nil {
		t.Fatalf("first attempt rejected: %+v", m)
	}
	first.Close() // the attempt dies; its session must release the key

	second := helloConn(t, recv.Addr(), hello)
	defer second.Close()
	if m := recvReply(t, second); m.Welcome == nil {
		t.Fatalf("retry bounced instead of reclaiming the session: %+v", m)
	}
}

// The retry's wait is on the holder's release, not on a timer: with the
// busy bound far away, a Hello parked behind a holder that is still tearing
// down gets its Welcome as soon as the holder unregisters — the old 25 ms
// busy-poll added 12 ms on average.
func TestEndpointRetryAdmittedOnRelease(t *testing.T) {
	recv := NewReceiver(testConfig(), fsim.NewSyntheticStore())
	recv.busyWait = time.Minute
	if err := recv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go recv.Serve(ctx)

	const rounds = 15
	var waits []time.Duration
	for i := 0; i < rounds; i++ {
		hello := wire.Hello{
			Files:        []wire.FileInfo{{Name: "r.dat", Size: 1 << 20}},
			ChunkBytes:   64 << 10,
			ProtoVersion: wire.ProtoVersion,
			SessionID:    fmt.Sprintf("held-%d", i),
		}
		holder, _, err := recv.admit(&hello)
		if err != nil {
			t.Fatal(err)
		}
		retry := helloConn(t, recv.Addr(), hello)
		// Give the handler time to park behind the holder. Releasing
		// before it has is harmless: it is then admitted outright.
		time.Sleep(20 * time.Millisecond)
		t0 := time.Now()
		recv.release(holder, errors.New("previous attempt torn down"))
		if m := recvReply(t, retry); m.Welcome == nil {
			t.Fatalf("round %d: retry bounced after the holder released: %+v", i, m)
		}
		waits = append(waits, time.Since(t0))
		retry.Close()
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	if med := waits[rounds/2]; med > 5*time.Millisecond {
		t.Fatalf("median release→Welcome %v over %d rounds (all: %v): the retry is not woken by the release", med, rounds, waits)
	}
}

// A holder that never releases still costs the retry only the bound, and
// the retry still gets the busy error after it.
func TestEndpointRetryBusyAfterBound(t *testing.T) {
	recv := NewReceiver(testConfig(), fsim.NewSyntheticStore())
	recv.busyWait = 150 * time.Millisecond
	if err := recv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	go recv.Serve(ctx)

	hello := wire.Hello{
		Files:        []wire.FileInfo{{Name: "r.dat", Size: 1 << 20}},
		ChunkBytes:   64 << 10,
		ProtoVersion: wire.ProtoVersion,
		SessionID:    "never-released",
	}
	if _, _, err := recv.admit(&hello); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	retry := helloConn(t, recv.Addr(), hello)
	defer retry.Close()
	m := recvReply(t, retry)
	if m.Status == nil || !strings.Contains(m.Status.Error, "already active") {
		t.Fatalf("retry behind a stuck holder not rejected as busy: %+v", m)
	}
	if waited := time.Since(t0); waited < recv.busyWait {
		t.Fatalf("busy error after %v, before the %v bound", waited, recv.busyWait)
	}
	if got := gauge(t, recv.MetricsSnapshot(), "automdt_endpoint_sessions_total", "rejected"); got != 1 {
		t.Fatalf("rejected gauge %v, want 1", got)
	}
}

// A data connection that does not open with the preamble magic and a
// live token never reaches a session: an unknown token and a bare frame
// stream (what a pre-preamble peer would send) are closed at once, and
// one that stalls mid-preamble is closed by shutdown instead of hanging
// it. None of their bytes land in the live session's staging.
func TestEndpointRejectsUnknownToken(t *testing.T) {
	recv := NewReceiver(testConfig(), fsim.NewSyntheticStore())
	if err := recv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- recv.Serve(ctx) }()

	// One live session the strays could be mis-routed into.
	live := helloConn(t, recv.Addr(), wire.Hello{
		Files:        []wire.FileInfo{{Name: "live.dat", Size: 1 << 20}},
		ChunkBytes:   64 << 10,
		ProtoVersion: wire.ProtoVersion,
		SessionID:    "live",
	})
	defer live.Close()
	if m := recvReply(t, live); m.Welcome == nil {
		t.Fatalf("live session rejected: %+v", m)
	}
	recv.mu.Lock()
	sess := recv.byID["live"]
	recv.mu.Unlock()

	dial := func() net.Conn {
		conn, err := net.Dial("tcp", recv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		return conn
	}
	// closed reports whether the endpoint hung up (EOF or reset — not the
	// read deadline).
	closed := func(conn net.Conn) bool {
		_, err := conn.Read(make([]byte, 1))
		var ne net.Error
		return err != nil && !(errors.As(err, &ne) && ne.Timeout())
	}

	unknown := dial()
	defer unknown.Close()
	if err := wire.WriteDataPreamble(unknown, wire.NewDataToken()); err != nil {
		t.Fatal(err)
	}
	if !closed(unknown) {
		t.Fatal("endpoint kept a connection with an unknown token open")
	}

	bare := dial()
	defer bare.Close()
	if err := new(wire.FrameWriter).Write(bare, wire.Frame{FileID: 0, Offset: 0, Data: make([]byte, 16)}); err != nil {
		t.Fatal(err)
	}
	if !closed(bare) {
		t.Fatal("endpoint kept an un-preambled frame stream open")
	}

	stalled := dial()
	defer stalled.Close()
	if _, err := stalled.Write(wire.PreambleMagic[:3]); err != nil {
		t.Fatal(err)
	}

	if used := sess.staging.Used(); used != 0 {
		t.Fatalf("%d stray bytes reached the live session's staging", used)
	}
	cancel()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown hung on a data connection stalled mid-preamble")
	}
	if !closed(stalled) {
		t.Fatal("shutdown left the stalled connection open")
	}
}

// The sender refuses a Welcome from another generation, or one without a
// data token, with an error that says which.
func TestSenderRefusesBadWelcome(t *testing.T) {
	for _, tc := range []struct {
		name    string
		welcome wire.Welcome
		want    string
	}{
		{"other generation", wire.Welcome{ProtoVersion: 2, DataToken: wire.NewDataToken()},
			fmt.Sprintf("receiver speaks protocol 2, this sender speaks protocol %d only", wire.ProtoVersion)},
		{"no data token", wire.Welcome{ProtoVersion: wire.ProtoVersion}, "no data token"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				raw, err := ln.Accept()
				if err != nil {
					return
				}
				c := wire.NewConn(raw)
				defer c.Close()
				if m, err := c.Recv(); err != nil || m.Hello == nil {
					return
				}
				c.Send(wire.Message{Welcome: &tc.welcome})
				c.Recv() // hold the channel until the sender hangs up
			}()
			send := &Sender{Cfg: testConfig(), Store: fsim.NewSyntheticStore(), Manifest: workload.LargeFiles(1, 64<<10)}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			// No data connection is dialled: the handshake fails first.
			_, err = send.Run(ctx, ln.Addr().String())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run error %v, want one saying %q", err, tc.want)
			}
		})
	}
}

// Stale session ledgers are expired when the endpoint starts serving;
// fresh ledgers survive.
func TestEndpointExpiresStaleLedgers(t *testing.T) {
	dir := t.TempDir()
	dst, err := fsim.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-60 * 24 * time.Hour)
	if err := dst.SaveLedger("stale", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(filepath.Join(dir, ".automdt", "stale", "ledger.bin"), old, old); err != nil {
		t.Fatal(err)
	}
	if err := dst.SaveLedger("fresh", []byte("x")); err != nil {
		t.Fatal(err)
	}

	recv := NewReceiver(testConfig(), dst) // default 30-day TTL
	if err := recv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // GC runs before the accept loop; the endpoint exits at once
	recv.Serve(ctx)

	if _, err := dst.LoadLedger("stale"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale ledger survived GC (err=%v)", err)
	}
	if _, err := dst.LoadLedger("fresh"); err != nil {
		t.Fatalf("fresh ledger expired: %v", err)
	}
	if got := gauge(t, recv.MetricsSnapshot(), "automdt_endpoint_ledgers_expired_total", ""); got != 1 {
		t.Fatalf("expired gauge %v, want 1", got)
	}
}
