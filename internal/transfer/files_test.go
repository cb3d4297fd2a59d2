package transfer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"automdt/internal/fsim"
	"automdt/internal/wire"
	"automdt/internal/workload"
)

// handleCountStore wraps a synthetic store and counts the file handles
// open at the same time, and the peak of that count.
type handleCountStore struct {
	*fsim.SyntheticStore
	open, peak, doubleClosed atomic.Int64
}

type countedFile struct {
	io.ReaderAt
	io.WriterAt
	inner  io.Closer
	store  *handleCountStore
	closed atomic.Bool
}

func (f *countedFile) Close() error {
	if f.closed.Swap(true) {
		f.store.doubleClosed.Add(1)
		return nil
	}
	f.store.open.Add(-1)
	return f.inner.Close()
}

func (s *handleCountStore) count(f *countedFile) *countedFile {
	f.store = s
	n := s.open.Add(1)
	for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
	}
	return f
}

func (s *handleCountStore) Open(name string, size int64) (fsim.FileReader, error) {
	r, err := s.SyntheticStore.Open(name, size)
	if err != nil {
		return nil, err
	}
	return s.count(&countedFile{ReaderAt: r, inner: r}), nil
}

func (s *handleCountStore) Create(name string, size int64) (fsim.FileWriter, error) {
	w, err := s.SyntheticStore.Create(name, size)
	if err != nil {
		return nil, err
	}
	return s.count(&countedFile{WriterAt: w, inner: w}), nil
}

// checkHandles fails the test unless each store's peak stayed within
// bound and every handle it handed out was closed exactly once.
func checkHandles(t *testing.T, bound int64, stores map[string]*handleCountStore) {
	t.Helper()
	for end, s := range stores {
		if p := s.peak.Load(); p > bound {
			t.Errorf("%s held %d handles at once, want ≤ %d", end, p, bound)
		}
		if n := s.open.Load(); n != 0 {
			t.Errorf("%s left %d handles open after the session", end, n)
		}
		if n := s.doubleClosed.Load(); n != 0 {
			t.Errorf("%s closed %d handles twice", end, n)
		}
	}
}

// A session holds a file open only while it has work in flight, so the
// descriptors it needs do not grow with the manifest.
func TestSessionHoldsBoundedHandles(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	t.Run("fresh", func(t *testing.T) {
		m := make(workload.Manifest, 20000)
		for i := range m {
			m[i] = workload.File{Name: fmt.Sprintf("f%05d", i), Size: 1 << 10}
		}
		src := &handleCountStore{SyntheticStore: fsim.NewSyntheticStore()}
		dst := &handleCountStore{SyntheticStore: fsim.NewSyntheticStore()}
		if _, err := Loopback(ctx, testConfig(), m, src, dst, nil); err != nil {
			t.Fatal(err)
		}
		if got := dst.TotalWritten(); got != m.TotalBytes() {
			t.Fatalf("wrote %d bytes, want %d", got, m.TotalBytes())
		}
		checkHandles(t, 64, map[string]*handleCountStore{"sender": src, "receiver": dst})
	})

	// A resumed session plans only the head chunk of each file: the tail
	// was committed by an earlier attempt. A file is done when its last
	// planned chunk is read, not when the read reaches its end.
	t.Run("resumed tails committed", func(t *testing.T) {
		const session, chunk = "tails-committed", 4 << 10
		m := make(workload.Manifest, 4096)
		for i := range m {
			m[i] = workload.File{Name: fmt.Sprintf("f%04d", i), Size: 2 * chunk}
		}
		inner := fsim.NewSyntheticStore()
		l := NewLedger(session, chunk, m, true)
		buf := make([]byte, chunk)
		for i, f := range m {
			w, err := inner.Create(f.Name, f.Size)
			if err != nil {
				t.Fatal(err)
			}
			w.Close()
			fsim.FillContent(f.Name, chunk, buf)
			l.Commit(uint32(i), chunk, chunk, wire.PayloadCRC(buf))
		}
		if err := inner.SaveLedger(session, l.EncodeV2()); err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		cfg.ChunkBytes = chunk
		cfg.SessionID = session
		src := &handleCountStore{SyntheticStore: fsim.NewSyntheticStore()}
		dst := &handleCountStore{SyntheticStore: inner}
		res, err := Loopback(ctx, cfg, m, src, dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Resumed || res.SkippedBytes != m.TotalBytes()/2 {
			t.Fatalf("did not resume from the tail-only ledger: %+v", res)
		}
		checkHandles(t, 64, map[string]*handleCountStore{"sender": src, "receiver": dst})
	})
}

// closeFailStore fails the Close of one file's writer.
type closeFailStore struct {
	*fsim.SyntheticStore
	bad string
}

type closeFailWriter struct{ fsim.FileWriter }

// Close fails slowly, so the file's last commit is long done when the
// error lands.
func (closeFailWriter) Close() error {
	time.Sleep(50 * time.Millisecond)
	return errors.New("EIO on close (injected)")
}

func (s *closeFailStore) Create(name string, size int64) (fsim.FileWriter, error) {
	w, err := s.SyntheticStore.Create(name, size)
	if err != nil || name != s.bad {
		return w, err
	}
	return closeFailWriter{w}, nil
}

// A writer whose Close fails may not have landed its data: the session
// fails naming the file, and the file's ledger range is dropped so a
// resume sends it again. The one file's last commit completes the
// session's ledger before its close returns, so the verdict must wait
// for the close.
func TestWriterCloseErrorFailsSession(t *testing.T) {
	const session = "close-fails"
	m := workload.LargeFiles(1, 256<<10)
	dst := &closeFailStore{SyntheticStore: fsim.NewSyntheticStore(), bad: m[0].Name}
	cfg := testConfig()
	cfg.SessionID = session
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_, err := Loopback(ctx, cfg, m, fsim.NewSyntheticStore(), dst, nil)
	if err == nil {
		t.Fatal("session succeeded although a destination file failed to close")
	}
	if ctx.Err() != nil {
		t.Fatalf("session hung until the timeout: %v", err)
	}
	if !strings.Contains(err.Error(), "close "+m[0].Name) || !strings.Contains(err.Error(), "EIO on close") {
		t.Fatalf("error does not name the file and the cause: %v", err)
	}
	if n := loadSessionLedger(t, dst, session).FileCommitted(0); n != 0 {
		t.Fatalf("ledger still holds %d bytes of the file that failed to close", n)
	}
}
