package transfer

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"automdt/internal/fsim"
	"automdt/internal/wire"
	"automdt/internal/workload"
)

// failingStore wraps a store and fails writes after a byte budget.
// Concurrent write workers share the budget, so mu guards it.
type failingStore struct {
	inner  fsim.Store
	mu     sync.Mutex
	budget int64
}

func (f *failingStore) Open(name string, size int64) (fsim.FileReader, error) {
	return f.inner.Open(name, size)
}

func (f *failingStore) Create(name string, size int64) (fsim.FileWriter, error) {
	w, err := f.inner.Create(name, size)
	if err != nil {
		return nil, err
	}
	return &failingWriter{inner: w, store: f}, nil
}

type failingWriter struct {
	inner fsim.FileWriter
	store *failingStore
}

func (w *failingWriter) WriteAt(p []byte, off int64) (int, error) {
	w.store.mu.Lock()
	w.store.budget -= int64(len(p))
	full := w.store.budget < 0
	w.store.mu.Unlock()
	if full {
		return 0, errors.New("disk full (injected)")
	}
	return w.inner.WriteAt(p, off)
}

func (w *failingWriter) Close() error { return w.inner.Close() }

// A destination-side write failure must surface on the sender as a
// receiver error, not hang the transfer.
func TestReceiverWriteFailurePropagates(t *testing.T) {
	src := fsim.NewSyntheticStore()
	dst := &failingStore{inner: fsim.NewSyntheticStore(), budget: 1 << 20}
	cfg := testConfig()
	m := workload.LargeFiles(8, 1<<20) // 8 MB, fails after ~1 MB
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_, err := Loopback(ctx, cfg, m, src, dst, nil)
	if err == nil {
		t.Fatal("expected failure")
	}
	if ctx.Err() != nil {
		t.Fatalf("transfer hung until timeout instead of failing fast: %v", err)
	}
	if !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("error lost its cause: %v", err)
	}
}

// A source-side read failure must abort the transfer with the cause.
type failingReadStore struct{ fsim.Store }

func (f *failingReadStore) Open(name string, size int64) (fsim.FileReader, error) {
	return nil, fmt.Errorf("permission denied (injected) for %s", name)
}

func TestSenderReadFailurePropagates(t *testing.T) {
	src := &failingReadStore{Store: fsim.NewSyntheticStore()}
	dst := fsim.NewSyntheticStore()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_, err := Loopback(ctx, testConfig(), workload.LargeFiles(2, 1<<20), src, dst, nil)
	if err == nil {
		t.Fatal("expected failure")
	}
	if !strings.Contains(err.Error(), "permission denied") {
		t.Fatalf("error lost its cause: %v", err)
	}
}

// Garbage on the data port must not corrupt or wedge the receiver's
// session with the real sender.
func TestReceiverSurvivesGarbageConnection(t *testing.T) {
	dst := fsim.NewSyntheticStore()
	dst.Verify = true
	recv := NewReceiver(testConfig(), dst)
	if err := recv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	recvErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	go func() { recvErr <- recv.ServeN(ctx, 1) }()

	src := fsim.NewSyntheticStore()
	m := workload.LargeFiles(4, 512<<10)
	send := &Sender{Cfg: testConfig(), Store: src, Manifest: m}

	// Open a rogue connection that sends a bare frame header (a stray
	// prober, for example) while the real transfer runs.
	rogue, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	new(wire.FrameWriter).Write(rogue, wire.Frame{FileID: ^uint32(0)})
	rogue.Close()

	res, err := send.Run(ctx, recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if rerr := <-recvErr; rerr != nil {
		t.Fatal(rerr)
	}
	if res.Bytes != m.TotalBytes() || len(dst.Errors()) != 0 {
		t.Fatalf("transfer corrupted by rogue connection: bytes=%d errs=%v", res.Bytes, dst.Errors())
	}
}

// countingStore counts the positioned writes that reach its files.
type countingStore struct {
	fsim.Store
	writes atomic.Int64
}

func (s *countingStore) Create(name string, size int64) (fsim.FileWriter, error) {
	w, err := s.Store.Create(name, size)
	if err != nil {
		return nil, err
	}
	return &countingWriter{FileWriter: w, writes: &s.writes}, nil
}

type countingWriter struct {
	fsim.FileWriter
	writes *atomic.Int64
}

func (w *countingWriter) WriteAt(p []byte, off int64) (int, error) {
	w.writes.Add(1)
	return w.FileWriter.WriteAt(p, off)
}

// A frame that is not exactly one chunk of the session's grid must fail
// the receiver session (and therefore the sender) before a single byte
// reaches the destination: no correct sender produces one, and writing
// it would overwrite committed neighbours or grow the file.
func TestReceiverRejectsUnknownFileID(t *testing.T) {
	const chunk = 64 << 10
	const size = 16*chunk + 100 // chunk 16 is a 100-byte tail
	for _, tc := range []struct {
		name string
		f    wire.Frame
	}{
		{"unknown-id", wire.Frame{FileID: 99, Offset: 0, Data: make([]byte, 16)}},
		{"unaligned-offset", wire.Frame{FileID: 0, Offset: chunk / 2, Data: make([]byte, chunk)}},
		{"full-chunk-at-tail", wire.Frame{FileID: 0, Offset: 16 * chunk, Data: make([]byte, chunk)}},
		{"two-chunks", wire.Frame{FileID: 0, Offset: 0, Data: make([]byte, 2*chunk)}},
		{"past-eof", wire.Frame{FileID: 0, Offset: 17 * chunk, Data: make([]byte, chunk)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := &countingStore{Store: fsim.NewSyntheticStore()}
			recv := NewReceiver(testConfig(), dst)
			if err := recv.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			recvErr := make(chan error, 1)
			go func() { recvErr <- recv.ServeN(ctx, 1) }()

			ctrlRaw, err := net.Dial("tcp", recv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			ctrl := wire.NewConn(ctrlRaw)
			defer ctrl.Close()
			if err := ctrl.Send(wire.Message{Hello: &wire.Hello{
				Files:        []wire.FileInfo{{Name: "only", Size: size}},
				ChunkBytes:   chunk,
				ProtoVersion: wire.ProtoVersion,
			}}); err != nil {
				t.Fatal(err)
			}
			welcome := recvReply(t, ctrl).Welcome
			if welcome == nil {
				t.Fatal("session rejected")
			}
			data, err := net.Dial("tcp", recv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer data.Close()
			if err := wire.WriteDataPreamble(data, welcome.DataToken); err != nil {
				t.Fatal(err)
			}
			if err := new(wire.FrameWriter).Write(data, tc.f); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-recvErr:
				if err == nil || !strings.Contains(err.Error(), "is not a chunk of this session") {
					t.Fatalf("receiver session ended with %v, want a rejected frame", err)
				}
			case <-time.After(15 * time.Second):
				t.Fatal("receiver did not fail on bad frame")
			}
			if n := dst.writes.Load(); n != 0 {
				t.Fatalf("%d writes reached the store", n)
			}
		})
	}
}

// Killing the receiver process mid-transfer must error the sender out
// promptly (control channel severed).
func TestSenderDetectsReceiverDeath(t *testing.T) {
	dst := fsim.NewSyntheticStore()
	cfg := testConfig()
	cfg.Shaping.LinkMbps = 50 // slow so the transfer is mid-flight
	recv := NewReceiver(cfg, dst)
	if err := recv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	rctx, rcancel := context.WithCancel(context.Background())
	go recv.Serve(rctx)

	src := fsim.NewSyntheticStore()
	m := workload.LargeFiles(4, 2<<20)
	send := &Sender{Cfg: cfg, Store: src, Manifest: m}
	go func() {
		time.Sleep(300 * time.Millisecond)
		rcancel() // kill the receiver mid-transfer
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := send.Run(ctx, recv.Addr())
	if err == nil {
		t.Fatal("sender did not notice receiver death")
	}
	if ctx.Err() != nil {
		t.Fatal("sender hung until test timeout")
	}
}
