package transfer

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"automdt/internal/fsim"
	"automdt/internal/wire"
	"automdt/internal/workload"
)

// removeStoreFile deletes a destination file out from under a ledger.
func removeStoreFile(t *testing.T, root, name string) error {
	t.Helper()
	return os.Remove(filepath.Join(root, name))
}

// corruptStoreFile flips one byte of a destination file.
func corruptStoreFile(t *testing.T, root, name string, off int64) {
	t.Helper()
	p := filepath.Join(root, name)
	f, err := os.OpenFile(p, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// loadSessionLedger reads the persisted ledger (snapshot + journal)
// straight from the store.
func loadSessionLedger(t *testing.T, ls fsim.LedgerStore, session string) *Ledger {
	t.Helper()
	l, err := LoadSessionLedger(ls, session)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// runReceiver starts a single-session receiver on loopback and returns
// it with its ServeN error channel.
func runReceiver(t *testing.T, ctx context.Context, cfg Config, dst fsim.Store) (*Receiver, chan error) {
	t.Helper()
	recv := NewReceiver(cfg, dst)
	if err := recv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- recv.ServeN(ctx, 1) }()
	return recv, errCh
}

// The tentpole acceptance test: a transfer killed mid-flight resumes
// from the persisted ledger against the same DirStore and completes
// while re-sending less than 10% of the bytes the first attempt had
// already committed — counted on the wire, not inferred.
func TestResumeAfterReceiverKill(t *testing.T) {
	dir := t.TempDir()
	const session = "e2e-kill-resume"
	m := workload.LargeFiles(4, 2<<20) // 8 MiB
	total := m.TotalBytes()
	src := fsim.NewSyntheticStore()

	cfg := testConfig()
	cfg.SessionID = session
	cfg.ProbeInterval = 25 * time.Millisecond // frequent ledger persistence
	cfg.InitialThreads = 4
	cfg.Shaping.LinkMbps = 200 // ~25 MB/s so the kill lands mid-flight

	// Attempt 1: kill the receiver once the ledger shows real progress.
	dst1, err := fsim.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rctx, rcancel := context.WithCancel(context.Background())
	recv, recvErr := runReceiver(t, rctx, cfg, dst1)
	go func() {
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			if l, err := LoadSessionLedger(dst1, session); err == nil && l.CommittedBytes() > total/4 {
				rcancel() // kill the receiver process mid-transfer
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		rcancel()
	}()
	send := &Sender{Cfg: cfg, Store: src, Manifest: m}
	ctx1, cancel1 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel1()
	if _, err := send.Run(ctx1, recv.Addr()); err == nil {
		t.Fatal("sender survived receiver death")
	}
	<-recvErr
	rcancel()

	dstAfterKill, err := fsim.NewDirStore(dir) // fresh store value = fresh process
	if err != nil {
		t.Fatal(err)
	}
	committed1 := loadSessionLedger(t, dstAfterKill, session).CommittedBytes()
	if committed1 <= 0 || committed1 >= total {
		t.Fatalf("first attempt committed %d of %d; kill did not land mid-flight", committed1, total)
	}

	// Attempt 2: restart against the same directory, same session, no
	// shaping — the sender must plan only the missing ranges.
	cfg2 := cfg
	cfg2.Shaping = Shaping{}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	recv2, recvErr2 := runReceiver(t, ctx2, cfg2, dstAfterKill)
	send2 := &Sender{Cfg: cfg2, Store: src, Manifest: m}
	res, err := send2.Run(ctx2, recv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if rerr := <-recvErr2; rerr != nil {
		t.Fatal(rerr)
	}

	if !res.Resumed || res.SessionID != session {
		t.Fatalf("second run did not resume: %+v", res)
	}
	if res.SkippedBytes != committed1 {
		t.Fatalf("skipped %d, ledger had %d committed", res.SkippedBytes, committed1)
	}
	missing := total - committed1
	// Acceptance: re-sent bytes (wire bytes beyond the missing ranges)
	// stay under 10% of what was already committed.
	if resent := res.WireBytes - missing; resent < 0 || resent > committed1/10 {
		t.Fatalf("wire bytes %d for %d missing: re-sent %d > 10%% of committed %d",
			res.WireBytes, missing, resent, committed1)
	}

	// The session completed: ledger gone, every byte on disk correct.
	if _, err := dstAfterKill.LoadLedger(session); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("ledger should be removed after completion, got %v", err)
	}
	for _, f := range m {
		got, err := os.ReadFile(filepath.Join(dir, f.Name))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, f.Size)
		fsim.FillContent(f.Name, 0, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s corrupt after resume", f.Name)
		}
	}
}

// A corrupt committed region must be caught by resume-time read-back
// verification and invalidate just that ledger range: the second run
// re-sends the corrupted chunk (plus the missing tail) and produces a
// correct file.
func TestResumeRevalidatesCorruptRegion(t *testing.T) {
	dir := t.TempDir()
	const session = "e2e-corrupt-region"
	m := workload.LargeFiles(2, 1<<20)
	src := fsim.NewSyntheticStore()

	cfg := testConfig()
	cfg.SessionID = session
	cfg.ProbeInterval = 25 * time.Millisecond
	cfg.Shaping.LinkMbps = 100

	dst1, err := fsim.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rctx, rcancel := context.WithCancel(context.Background())
	recv, recvErr := runReceiver(t, rctx, cfg, dst1)
	go func() {
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			if l, err := LoadSessionLedger(dst1, session); err == nil && l.FileCommitted(0) >= 3*int64(cfg.ChunkBytes) {
				rcancel()
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		rcancel()
	}()
	send := &Sender{Cfg: cfg, Store: src, Manifest: m}
	ctx1, cancel1 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel1()
	if _, err := send.Run(ctx1, recv.Addr()); err == nil {
		t.Fatal("sender survived receiver death")
	}
	<-recvErr

	dst2, err := fsim.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := loadSessionLedger(t, dst2, session)
	// Flip a byte inside the first committed chunk of file 0. Chunks
	// commit out of order under load, so that need not be chunk 0.
	corruptAt := int64(-1)
	for off := int64(0); off < m[0].Size; off += int64(cfg.ChunkBytes) {
		if before.Done(0, off) {
			corruptAt = off + 100
			break
		}
	}
	if corruptAt < 0 {
		t.Skip("no chunk of file 0 committed before the kill; nothing to corrupt")
	}
	corruptStoreFile(t, dir, m[0].Name, corruptAt)

	cfg2 := cfg
	cfg2.Shaping = Shaping{}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	recv2, recvErr2 := runReceiver(t, ctx2, cfg2, dst2)
	send2 := &Sender{Cfg: cfg2, Store: src, Manifest: m}
	res, err := send2.Run(ctx2, recv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if rerr := <-recvErr2; rerr != nil {
		t.Fatal(rerr)
	}
	// The corrupted chunk must NOT have been skipped: skipped < committed.
	if res.SkippedBytes >= before.CommittedBytes() {
		t.Fatalf("corrupt chunk was trusted: skipped %d of %d committed",
			res.SkippedBytes, before.CommittedBytes())
	}
	for _, f := range m {
		got, err := os.ReadFile(filepath.Join(dir, f.Name))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, f.Size)
		fsim.FillContent(f.Name, 0, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s corrupt after resumed repair", f.Name)
		}
	}
}

// A fully committed session resumed again must complete instantly with
// zero bytes on the wire.
func TestResumeAlreadyCompleteSendsNothing(t *testing.T) {
	dir := t.TempDir()
	const session = "e2e-noop-resume"
	m := workload.LargeFiles(2, 256<<10)
	src := fsim.NewSyntheticStore()
	cfg := testConfig()
	cfg.SessionID = session

	dst, err := fsim.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Loopback(context.Background(), cfg, m, src, dst, nil); err != nil {
		t.Fatal(err)
	}
	// Completion removes the ledger, so a re-run is a fresh full
	// transfer. Simulate a crash that lost only the final cleanup by
	// rebuilding the ledger as fully committed.
	l := NewLedger(session, cfg.ChunkBytes, m, true)
	buf := make([]byte, cfg.ChunkBytes)
	for fi, f := range m {
		for off := int64(0); off < f.Size; off += int64(cfg.ChunkBytes) {
			end := off + int64(cfg.ChunkBytes)
			if end > f.Size {
				end = f.Size
			}
			chunk := buf[:end-off]
			fsim.FillContent(f.Name, off, chunk)
			l.Commit(uint32(fi), off, int(end-off), wire.PayloadCRC(chunk))
		}
	}
	if err := dst.SaveLedger(session, l.EncodeV2()); err != nil {
		t.Fatal(err)
	}

	res, err := Loopback(context.Background(), cfg, m, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed || res.WireBytes != 0 || res.SkippedBytes != m.TotalBytes() {
		t.Fatalf("no-op resume sent data: %+v", res)
	}
}

// A ledger without per-chunk sums — what a session run without
// checksums persisted before protocol 7 — cannot prove its committed
// ranges, so a session with its ID is not resumed from it. Here one
// covers the whole dataset while a committed range is corrupt at the
// destination: trusted, it would skip the corrupt chunk. The session
// instead starts over, replaces the ledger with one that records sums
// before its Welcome, and completes byte-correct.
func TestResumeRefusesSumlessLedger(t *testing.T) {
	dir := t.TempDir()
	const session = "sumless-ledger"
	m := workload.LargeFiles(2, 256<<10)
	cfg := testConfig()
	cfg.SessionID = session

	dst := materializeDir(t, dir, m)
	stale := NewLedger(session, cfg.ChunkBytes, m, false)
	for fi, f := range m {
		for off := int64(0); off < f.Size; off += int64(cfg.ChunkBytes) {
			stale.Commit(uint32(fi), off, int(min(int64(cfg.ChunkBytes), f.Size-off)), 0)
		}
	}
	if err := dst.SaveLedger(session, stale.EncodeV2()); err != nil {
		t.Fatal(err)
	}
	if l := loadSessionLedger(t, dst, session); l.HasSums || l.CommittedBytes() != m.TotalBytes() {
		t.Fatalf("stale ledger persisted with sums %v, %d bytes committed", l.HasSums, l.CommittedBytes())
	}
	corruptStoreFile(t, dir, m[1].Name, int64(cfg.ChunkBytes)+100)

	var replaced *Ledger
	cfg.Hooks.OnSession = func(Session) { replaced, _ = LoadSessionLedger(dst, session) }
	res, err := Loopback(context.Background(), cfg, m, fsim.NewSyntheticStore(), dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed || res.SkippedBytes != 0 || res.WireBytes != m.TotalBytes() {
		t.Fatalf("session trusted the sumless ledger: resumed %v, skipped %d, sent %d of %d",
			res.Resumed, res.SkippedBytes, res.WireBytes, m.TotalBytes())
	}
	if replaced == nil || !replaced.HasSums || replaced.CommittedBytes() != 0 {
		t.Fatalf("ledger at the Welcome: %+v, want a fresh one that records sums", replaced)
	}
	if _, err := dst.LoadLedger(session); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("completed session left a persisted ledger (err %v)", err)
	}
	for _, f := range m {
		got, err := os.ReadFile(filepath.Join(dir, f.Name))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, f.Size)
		fsim.FillContent(f.Name, 0, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s corrupt after the session", f.Name)
		}
	}
}

// A persisted ledger pins the session's chunk geometry: resuming with a
// different configured ChunkBytes must still honour the committed
// ranges (planned at the ledger's chunk size) instead of starting over.
func TestResumeSurvivesChunkSizeChange(t *testing.T) {
	dir := t.TempDir()
	const session = "e2e-chunk-pin"
	m := workload.LargeFiles(2, 512<<10)
	src := fsim.NewSyntheticStore()
	cfg := testConfig() // 64 KiB chunks
	cfg.SessionID = session

	dst, err := fsim.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Persist a half-committed ledger at the original 64 KiB geometry.
	l := NewLedger(session, cfg.ChunkBytes, m, true)
	buf := make([]byte, cfg.ChunkBytes)
	w, err := dst.Create(m[0].Name, m[0].Size)
	if err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < m[0].Size; off += int64(cfg.ChunkBytes) {
		chunk := buf[:min(int64(cfg.ChunkBytes), m[0].Size-off)]
		fsim.FillContent(m[0].Name, off, chunk)
		if _, err := w.WriteAt(chunk, off); err != nil {
			t.Fatal(err)
		}
		l.Commit(0, off, len(chunk), wire.PayloadCRC(chunk))
	}
	w.Close()
	if err := dst.SaveLedger(session, l.EncodeV2()); err != nil {
		t.Fatal(err)
	}

	cfg2 := cfg
	cfg2.ChunkBytes = 128 << 10 // sender config changed between attempts
	res, err := Loopback(context.Background(), cfg2, m, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed || res.SkippedBytes != m[0].Size {
		t.Fatalf("chunk-size change lost the ledger: %+v", res)
	}
	if res.WireBytes != m[1].Size {
		t.Fatalf("wire bytes %d want %d (only the uncommitted file)", res.WireBytes, m[1].Size)
	}
}

// Ledger files from before the format floor — the schema-1 JSON
// document and the flat sidecar — are not read: a session that finds
// only them restarts from byte zero, transfers everything byte-correct,
// and leaves no session directory behind.
func TestPreFloorLedgerFilesAreIgnored(t *testing.T) {
	dir := t.TempDir()
	const session = "pre-floor"
	m := workload.LargeFiles(2, 256<<10)
	src := fsim.NewSyntheticStore()
	cfg := testConfig() // 64 KiB chunks: 4 per file
	cfg.SessionID = session

	dst, err := fsim.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// What an old build would have left: a document claiming file 0 is
	// fully committed, in both historical places.
	doc := []byte(`{"schema":1,"session":"pre-floor","chunk_bytes":65536,"has_sums":false,` +
		`"files":[{"name":"` + m[0].Name + `","size":262144,"bitmap":[15]},{"name":"` + m[1].Name + `","size":262144}]}`)
	sessDir := filepath.Join(dir, ".automdt", session)
	flat := filepath.Join(dir, ".automdt", session+".ledger")
	if err := os.MkdirAll(sessDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{filepath.Join(sessDir, "ledger.json"), flat} {
		if err := os.WriteFile(p, doc, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	res, err := Loopback(context.Background(), cfg, m, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed || res.SkippedBytes != 0 || res.Bytes != m.TotalBytes() {
		t.Fatalf("pre-floor ledger files were honoured: %+v", res)
	}
	for _, f := range m {
		got, err := os.ReadFile(filepath.Join(dir, f.Name))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, f.Size)
		fsim.FillContent(f.Name, 0, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s corrupt after the fresh restart", f.Name)
		}
	}
	if _, err := os.Stat(sessDir); !os.IsNotExist(err) {
		t.Fatalf("session directory survived completion: %v", err)
	}
	if got, err := os.ReadFile(flat); err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("flat sidecar was touched (err=%v)", err)
	}
}

// Cancellation at any phase — including between the control handshake
// and the data dial — must return every arena lease and leave the
// sender's goroutines unblocked (the aborted Loopback returns at all).
func TestLoopbackCancelReleasesLeases(t *testing.T) {
	m := workload.LargeFiles(4, 2<<20)
	for _, delay := range []time.Duration{0, 5 * time.Millisecond, 60 * time.Millisecond} {
		arena := NewArena(256 << 20)
		cfg := testConfig()
		cfg.Arena = arena
		cfg.Shaping.LinkMbps = 80 // slow enough that cancellation lands mid-flight
		src, dst := fsim.NewSyntheticStore(), fsim.NewSyntheticStore()
		ctx, cancel := context.WithCancel(context.Background())
		if delay == 0 {
			cancel()
		} else {
			time.AfterFunc(delay, cancel)
		}
		_, err := Loopback(ctx, cfg, m, src, dst, nil)
		cancel()
		if err == nil {
			t.Fatalf("delay %v: cancelled transfer succeeded", delay)
		}
		if st := arena.Stats(); st.InUseBytes != 0 {
			t.Fatalf("delay %v: %d arena bytes still leased after aborted Loopback (stats %+v)",
				delay, st.InUseBytes, st)
		}
	}
}
