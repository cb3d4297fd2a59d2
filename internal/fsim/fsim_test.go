package fsim

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSyntheticContentDeterministic(t *testing.T) {
	a := make([]byte, 64)
	b := make([]byte, 64)
	FillContent("f.dat", 100, a)
	FillContent("f.dat", 100, b)
	if !bytes.Equal(a, b) {
		t.Fatal("content not deterministic")
	}
	FillContent("other.dat", 100, b)
	if bytes.Equal(a, b) {
		t.Fatal("different files should have different content")
	}
}

func TestSyntheticContentOffsetConsistency(t *testing.T) {
	// Reading [0,128) must equal reading [0,64)+[64,128).
	whole := make([]byte, 128)
	FillContent("x", 0, whole)
	lo := make([]byte, 64)
	hi := make([]byte, 64)
	FillContent("x", 0, lo)
	FillContent("x", 64, hi)
	if !bytes.Equal(whole[:64], lo) || !bytes.Equal(whole[64:], hi) {
		t.Fatal("offset-addressed content inconsistent")
	}
}

func TestSyntheticReaderBounds(t *testing.T) {
	s := NewSyntheticStore()
	r, err := s.Open("a", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 60)
	if n, err := r.ReadAt(buf, 0); n != 60 || err != nil {
		t.Fatalf("full read n=%d err=%v", n, err)
	}
	// Tail read returns short count + EOF.
	if n, err := r.ReadAt(buf, 80); n != 20 || err != io.EOF {
		t.Fatalf("tail read n=%d err=%v", n, err)
	}
	if _, err := r.ReadAt(buf, 100); err != io.EOF {
		t.Fatalf("past-end read err=%v", err)
	}
	if _, err := r.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset should error")
	}
}

func TestSyntheticWriterVerifyAcceptsCorrectContent(t *testing.T) {
	s := NewSyntheticStore()
	s.Verify = true
	w, err := s.Create("v.dat", 1000)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1000)
	FillContent("v.dat", 0, buf)
	if _, err := w.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if s.WrittenBytes("v.dat") != 1000 {
		t.Fatalf("written=%d", s.WrittenBytes("v.dat"))
	}
	if len(s.Errors()) != 0 {
		t.Fatalf("unexpected errors: %v", s.Errors())
	}
}

// Verification works a word at a time, so a corruption is named by its
// exact first offset wherever it falls — in the unaligned head, inside
// an aligned word, or in the unaligned tail — for every alignment of the
// write. A second corruption later in the write must not be reported
// instead of the first.
func TestSyntheticWriterVerifyCatchesCorruption(t *testing.T) {
	for off := int64(0); off < 16; off++ {
		n := 40 + int(off%7)
		aligned := int((8 - off%8) % 8) // first index of p on a word boundary
		for _, pos := range []struct {
			name string
			i    int
		}{
			{"head", 0},
			{"body", aligned + 8 + 5},
			{"tail", n - 1},
		} {
			s := NewSyntheticStore()
			s.Verify = true
			w, _ := s.Create("v.dat", 128)
			buf := make([]byte, n)
			FillContent("v.dat", off, buf)
			want := buf[pos.i]
			buf[pos.i] ^= 0x5A
			if pos.i < n-1 {
				buf[n-1] ^= 0xFF
			}
			_, err := w.WriteAt(buf, off)
			msg := fmt.Sprintf("at offset %d: got %#x want %#x", off+int64(pos.i), buf[pos.i], want)
			if err == nil || !strings.Contains(err.Error(), msg) {
				t.Fatalf("write at %d, corrupt %s byte %d: err %v, want it to say %q", off, pos.name, pos.i, err, msg)
			}
			if errs := s.Errors(); len(errs) != 1 || errs[0].Error() != err.Error() {
				t.Fatalf("write at %d, corrupt %s byte %d: recorded %v", off, pos.name, pos.i, errs)
			}
		}
	}
}

func TestSyntheticWriterBounds(t *testing.T) {
	s := NewSyntheticStore()
	w, _ := s.Create("b.dat", 10)
	if _, err := w.WriteAt(make([]byte, 20), 0); err == nil {
		t.Fatal("oversized write should error")
	}
	if _, err := w.WriteAt(make([]byte, 5), 8); err == nil {
		t.Fatal("overhanging write should error")
	}
}

func TestTotalWritten(t *testing.T) {
	s := NewSyntheticStore()
	w1, _ := s.Create("a", 100)
	w2, _ := s.Create("b", 100)
	w1.WriteAt(make([]byte, 40), 0)
	w2.WriteAt(make([]byte, 25), 0)
	if s.TotalWritten() != 65 {
		t.Fatalf("TotalWritten=%d", s.TotalWritten())
	}
}

func TestDirStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := ds.Create("sub/f.bin", 128)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 128)
	FillContent("f", 0, content)
	if _, err := w.WriteAt(content[64:], 64); err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt(content[:64], 0); err != nil {
		t.Fatal(err)
	}
	w.Close()
	r, err := ds.Open("sub/f.bin", 128)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make([]byte, 128)
	if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("round trip mismatch")
	}
}

func TestDirStorePreSizesFiles(t *testing.T) {
	dir := t.TempDir()
	ds, _ := NewDirStore(dir)
	w, err := ds.Create("f.bin", 4096)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	fi, err := os.Stat(filepath.Join(dir, "f.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 4096 {
		t.Fatalf("pre-sized to %d want 4096", fi.Size())
	}
}

func TestDirStoreRejectsEscapes(t *testing.T) {
	dir := t.TempDir()
	ds, _ := NewDirStore(dir)
	for _, name := range []string{"../evil", "/abs/path", "a/../../evil"} {
		if _, err := ds.Open(name, 1); err == nil {
			t.Fatalf("path %q should be rejected", name)
		}
	}
}

// DirStore's open semantics, one row per promise the engine relies on.
func TestDirStoreSemantics(t *testing.T) {
	write := func(t *testing.T, p string, data []byte) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, root string, ds *DirStore)
	}{
		{"a larger existing file is shrunk to size", func(t *testing.T, root string, ds *DirStore) {
			write(t, filepath.Join(root, "f"), bytes.Repeat([]byte{7}, 8192))
			w, err := ds.Create("f", 100)
			if err != nil {
				t.Fatal(err)
			}
			w.Close()
			if size, err := ds.Stat("f"); err != nil || size != 100 {
				t.Fatalf("size %d err %v, want 100", size, err)
			}
		}},
		{"a same-size existing file keeps its bytes", func(t *testing.T, root string, ds *DirStore) {
			want := bytes.Repeat([]byte("resume"), 100)
			write(t, filepath.Join(root, "f"), want)
			w, err := ds.Create("f", int64(len(want)))
			if err != nil {
				t.Fatal(err)
			}
			w.Close()
			if got, err := os.ReadFile(filepath.Join(root, "f")); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("content changed (err %v)", err)
			}
		}},
		{"a missing nested parent directory is created", func(t *testing.T, root string, ds *DirStore) {
			w, err := ds.Create("a/b/c/f", 10)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.WriteAt([]byte("x"), 9); err != nil {
				t.Fatal(err)
			}
			w.Close()
			if size, err := ds.Stat("a/b/c/f"); err != nil || size != 10 {
				t.Fatalf("size %d err %v, want 10", size, err)
			}
		}},
		{"a parent removed after the first Create is made again", func(t *testing.T, root string, ds *DirStore) {
			for _, name := range []string{"d/f1", "d/f2"} {
				w, err := ds.Create(name, 10)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if err := os.RemoveAll(filepath.Join(root, "d")); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"a missing root is made by Create", func(t *testing.T, root string, _ *DirStore) {
			ds := &DirStore{Root: filepath.Join(root, "later")}
			if _, err := ds.Open("f", 1); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("Open under a missing root: %v, want not-exist", err)
			}
			w, err := ds.Create("sub/f", 10)
			if err != nil {
				t.Fatal(err)
			}
			w.Close()
			r, err := ds.Open("sub/f", 10)
			if err != nil {
				t.Fatal(err)
			}
			r.Close()
		}},
		{"a read past the end returns the bytes it got and io.EOF", func(t *testing.T, root string, ds *DirStore) {
			write(t, filepath.Join(root, "f"), []byte("0123456789"))
			r, err := ds.Open("f", 10)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			p := make([]byte, 8)
			if n, err := r.ReadAt(p, 6); n != 4 || err != io.EOF || string(p[:n]) != "6789" {
				t.Fatalf("ReadAt(8 bytes at 6) = %d %q, %v; want 4 \"6789\", io.EOF", n, p[:n], err)
			}
			if n, err := r.ReadAt(p, 10); n != 0 || err != io.EOF {
				t.Fatalf("ReadAt at the end = %d, %v; want 0, io.EOF", n, err)
			}
			if n, err := r.ReadAt(p[:4], 2); n != 4 || err != nil || string(p[:n]) != "2345" {
				t.Fatalf("ReadAt(4 bytes at 2) = %d %q, %v; want 4 \"2345\", nil", n, p[:n], err)
			}
		}},
		{"errors are *os.PathError naming the full path", func(t *testing.T, root string, ds *DirStore) {
			wantPath := func(t *testing.T, what string, err error, path string) {
				t.Helper()
				var pe *os.PathError
				if !errors.As(err, &pe) || pe.Path != path {
					t.Fatalf("%s: %v, want an *os.PathError naming %s", what, err, path)
				}
			}
			_, err := ds.Open("a/missing", 1)
			wantPath(t, "Open of a missing file", err, filepath.Join(root, "a/missing"))
			write(t, filepath.Join(root, "plain"), []byte("x"))
			_, err = ds.Create("plain/f", 1)
			wantPath(t, "Create under a regular file", err, filepath.Join(root, "plain/f"))
			w, err := ds.Create("b/f", 4)
			if err != nil {
				t.Fatal(err)
			}
			_, err = w.WriteAt([]byte("x"), -1)
			wantPath(t, "WriteAt at a negative offset", err, filepath.Join(root, "b/f"))
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			err = w.Close()
			wantPath(t, "a second Close", err, filepath.Join(root, "b/f"))
			if !errors.Is(err, os.ErrClosed) {
				t.Fatalf("a second Close: %v, want os.ErrClosed", err)
			}
			r, err := ds.Open("b/f", 4)
			if err != nil {
				t.Fatal(err)
			}
			_, err = r.ReadAt(make([]byte, 1), -1)
			wantPath(t, "ReadAt at a negative offset", err, filepath.Join(root, "b/f"))
			r.Close()
		}},
		{"a name escaping the root is refused", func(t *testing.T, root string, ds *DirStore) {
			for _, name := range []string{"../evil", "/abs/path", "a/../../evil", "../" + filepath.Base(root) + "/evil"} {
				if w, err := ds.Create(name, 1); err == nil {
					w.Close()
					t.Fatalf("Create(%q) accepted", name)
				}
				if r, err := ds.Open(name, 1); err == nil {
					r.Close()
					t.Fatalf("Open(%q) accepted", name)
				}
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(root), "evil")); !os.IsNotExist(err) {
				t.Fatalf("a file escaped the root: %v", err)
			}
		}},
		{"Open of a missing file is not-exist", func(t *testing.T, root string, ds *DirStore) {
			_, err := ds.Open("missing", 1)
			var pe *os.PathError
			if !errors.Is(err, fs.ErrNotExist) || !errors.As(err, &pe) {
				t.Fatalf("want an *os.PathError that is fs.ErrNotExist, got %v", err)
			}
		}},
		{"a handle works after another handle's concurrent Close", func(t *testing.T, root string, ds *DirStore) {
			// Each closed descriptor number is free for the next open to
			// reuse; a handle must keep naming its own file regardless.
			const files, size = 8, 4096
			for round := 0; round < 50; round++ {
				var wg sync.WaitGroup
				errs := make(chan error, files)
				for i := 0; i < files; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs <- dirStoreHandleRoundTrip(ds, fmt.Sprintf("h%d", i), size)
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := filepath.Join(t.TempDir(), "root")
			ds, err := NewDirStore(root)
			if err != nil {
				t.Fatal(err)
			}
			tc.run(t, root, ds)
		})
	}
}

// The first Open and Create calls on a fresh DirStore race to open its
// root descriptor; every call must succeed, and the store must end up
// holding one descriptor for the root, not one per racer.
func TestDirStoreConcurrentFirstOpen(t *testing.T) {
	const racers = 32
	root := t.TempDir()
	for i := 0; i < racers/2; i++ {
		if err := os.WriteFile(filepath.Join(root, fmt.Sprintf("in%d", i)), []byte("data"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ds := &DirStore{Root: root}
	start := make(chan struct{})
	errs := make(chan error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var err error
			if i%2 == 0 {
				var r FileReader
				if r, err = ds.Open(fmt.Sprintf("in%d", i/2), 4); err == nil {
					p := make([]byte, 4)
					if _, err = r.ReadAt(p, 0); err == nil && string(p) != "data" {
						err = fmt.Errorf("read %q, want \"data\"", p)
					}
					r.Close()
				}
			} else {
				var w FileWriter
				if w, err = ds.Create(fmt.Sprintf("out/%d", i), 4); err == nil {
					_, err = w.WriteAt([]byte("data"), 0)
					if cerr := w.Close(); err == nil {
						err = cerr
					}
				}
			}
			errs <- err
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if held := descriptorsOn(t, root); runtime.GOOS == "linux" && held != 1 {
		t.Fatalf("%d descriptors held on the root after every handle closed, want 1", held)
	}
	runtime.KeepAlive(ds)
}

// descriptorsOn counts the process's open descriptors on dir, as
// /proc/self/fd lists them; -1 where that cannot be read.
func descriptorsOn(t *testing.T, dir string) int {
	t.Helper()
	dir, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	n := 0
	for _, e := range entries {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && target == dir {
			n++
		}
	}
	return n
}

// dirStoreHandleRoundTrip writes a file's content through one Create
// handle and reads it back through one Open handle, with a second
// handle of each kind opened and closed in between.
func dirStoreHandleRoundTrip(ds *DirStore, name string, size int64) error {
	want := make([]byte, size)
	FillContent(name, 0, want)
	w, err := ds.Create(name, size)
	if err != nil {
		return err
	}
	if other, err := ds.Create(name+".other", 1); err != nil {
		w.Close()
		return err
	} else if err := other.Close(); err != nil {
		w.Close()
		return err
	}
	if _, err := w.WriteAt(want, 0); err != nil {
		w.Close()
		return fmt.Errorf("write %s: %w", name, err)
	}
	if err := w.Close(); err != nil {
		return err
	}
	r, err := ds.Open(name, size)
	if err != nil {
		return err
	}
	defer r.Close()
	if other, err := ds.Open(name+".other", 1); err != nil {
		return err
	} else if err := other.Close(); err != nil {
		return err
	}
	got := make([]byte, size)
	if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
		return fmt.Errorf("read %s: %w", name, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s read back other bytes than were written", name)
	}
	return nil
}

// Property: synthetic reader output always matches FillContent, and
// both match the content taken one byte at a time, at any alignment and
// length: every offset 0..23 × every length 0..17 exhaustively (the
// unaligned head, whole words and the tail in every combination), then
// random offsets and lengths.
func TestQuickReaderMatchesFill(t *testing.T) {
	s := NewSyntheticStore()
	const size = 1 << 16
	r, _ := s.Open("q.dat", size)
	defer r.Close()
	h := nameHash("q.dat")
	match := func(o int64, length int) bool {
		got := make([]byte, length)
		want := make([]byte, length)
		if n, err := r.ReadAt(got, o); n != length || err != nil {
			return false
		}
		FillContent("q.dat", o, want)
		for i := range want {
			if want[i] != contentByte(h, o+int64(i)) {
				return false
			}
		}
		return bytes.Equal(got, want)
	}
	for o := int64(0); o < 24; o++ {
		for length := 0; length <= 17; length++ {
			if !match(o, length) {
				t.Fatalf("offset %d length %d: reader, FillContent and contentByte disagree", o, length)
			}
		}
	}
	f := func(off uint16, n uint8) bool {
		return match(int64(off)%(size-300), int(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The content is a fixed function of (name, offset): these CRC-32C
// values pin it bit for bit, over an aligned range, a range unaligned at
// both ends, and a short unaligned range far into a file. A flipped
// byte at each position of an unaligned 64-byte range — the head, every
// word of the four-word window, the words after it and the tail — is
// found at its exact index.
func TestSyntheticContentPinned(t *testing.T) {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for _, pin := range []struct {
		name string
		off  int64
		n    int
		crc  uint32
	}{
		{"pin.dat", 0, 256 << 10, 0x7f858002},
		{"pin.dat", 3, 1<<20 + 5, 0x0531f107},
		{"other.dat", 1 << 40, 4093, 0x448e5bd5},
	} {
		p := make([]byte, pin.n)
		FillContent(pin.name, pin.off, p)
		if got := crc32.Checksum(p, castagnoli); got != pin.crc {
			t.Errorf("FillContent(%q, %d, %d) has CRC-32C %#08x, want %#08x", pin.name, pin.off, pin.n, got, pin.crc)
		}
	}
	h := nameHash("pin.dat")
	// Offset 5, 64 bytes: three head bytes, one four-word window, three
	// words and a five-byte tail.
	const off = 5
	p := make([]byte, 64)
	fillContent(h, off, p)
	if i := firstMismatch(h, off, p); i != -1 {
		t.Fatalf("firstMismatch of matching content = %d, want -1", i)
	}
	for pos := 0; pos < 64; pos++ {
		p[pos] ^= 0x10
		if i := firstMismatch(h, off, p); i != pos {
			t.Errorf("byte %d flipped: firstMismatch = %d", pos, i)
		}
		p[pos] ^= 0x10
	}
}

// BenchmarkSyntheticFill measures generating one 256 KiB chunk of
// synthetic content, the read stage's cost per chunk.
func BenchmarkSyntheticFill(b *testing.B) {
	r, _ := NewSyntheticStore().Open("bench.dat", 1<<30)
	buf := make([]byte, 256<<10)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		r.ReadAt(buf, int64(i%1024)*int64(len(buf)))
	}
}

// BenchmarkSyntheticVerify measures checking one 256 KiB chunk against
// the generator, the verifying write stage's cost per chunk.
func BenchmarkSyntheticVerify(b *testing.B) {
	s := NewSyntheticStore()
	s.Verify = true
	w, _ := s.Create("bench.dat", 1<<30)
	buf := make([]byte, 256<<10)
	FillContent("bench.dat", 0, buf)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if _, err := w.WriteAt(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func TestValidSessionID(t *testing.T) {
	for _, ok := range []string{"job-7-a1b2c3", "Sess_01.resume", "x"} {
		if !ValidSessionID(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := make([]byte, 129)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", ".", "..", "a/b", `a\b`, "a b", "s\x00", string(long)} {
		if ValidSessionID(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

// Both stores are resumable destinations: each keeps the whole
// LedgerStore contract, so the receiver persists their sessions' ledgers
// rather than running them one-shot.
func TestStoresKeepLedgerStoreContract(t *testing.T) {
	var _ LedgerStore = (*DirStore)(nil)
	var _ LedgerStore = (*SyntheticStore)(nil)
}

func TestDirStoreStat(t *testing.T) {
	ds, _ := NewDirStore(t.TempDir())
	if _, err := ds.Stat("missing.bin"); !os.IsNotExist(err) {
		t.Fatalf("want not-exist, got %v", err)
	}
	w, err := ds.Create("f.bin", 4096)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	size, err := ds.Stat("f.bin")
	if err != nil || size != 4096 {
		t.Fatalf("Stat=%d err=%v", size, err)
	}
}

func TestDirStoreLedgerRoundTrip(t *testing.T) {
	ds, _ := NewDirStore(t.TempDir())
	if _, err := ds.LoadLedger("sess"); err == nil {
		t.Fatal("missing ledger loaded")
	}
	doc := []byte(`{"schema":1}`)
	if err := ds.SaveLedger("sess", doc); err != nil {
		t.Fatal(err)
	}
	got, err := ds.LoadLedger("sess")
	if err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("load=%q err=%v", got, err)
	}
	// Overwrite must be atomic-rename clean.
	doc2 := []byte(`{"schema":1,"files":[]}`)
	if err := ds.SaveLedger("sess", doc2); err != nil {
		t.Fatal(err)
	}
	if got, _ := ds.LoadLedger("sess"); !bytes.Equal(got, doc2) {
		t.Fatalf("overwrite lost: %q", got)
	}
	if err := ds.RemoveLedger("sess"); err != nil {
		t.Fatal(err)
	}
	if err := ds.RemoveLedger("sess"); err != nil {
		t.Fatalf("double remove should be benign: %v", err)
	}
	if _, err := ds.LoadLedger("sess"); err == nil {
		t.Fatal("removed ledger still loads")
	}
	// Hostile session ids must never touch the filesystem.
	if err := ds.SaveLedger("../escape", doc); err == nil {
		t.Fatal("path-escaping session id accepted")
	}
}

func TestSyntheticStoreStatAndLedger(t *testing.T) {
	s := NewSyntheticStore()
	if _, err := s.Stat("f"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want not-exist, got %v", err)
	}
	w, _ := s.Create("f", 512)
	w.Close()
	if size, err := s.Stat("f"); err != nil || size != 512 {
		t.Fatalf("Stat=%d err=%v", size, err)
	}
	if err := s.SaveLedger("sess", []byte("doc")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.LoadLedger("sess"); err != nil || string(got) != "doc" {
		t.Fatalf("load=%q err=%v", got, err)
	}
	s.RemoveLedger("sess")
	if _, err := s.LoadLedger("sess"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want not-exist after remove, got %v", err)
	}
}

// One layout: whatever the bytes, a save lands at ledger.bin and loads
// back, and a remove takes the whole session directory with it —
// including a crashed save's temp file and files this build never
// writes.
func TestDirStoreSaveRoutesByContentAndMigrates(t *testing.T) {
	root := t.TempDir()
	ds, _ := NewDirStore(root)
	dir := filepath.Join(root, ".automdt", "sess")
	for _, doc := range [][]byte{{0xAD, 'L', 'S', '2', 9, 9, 9}, []byte(`{"schema":1}`)} {
		if err := ds.SaveLedger("sess", doc); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(filepath.Join(dir, "ledger.bin")); err != nil || !bytes.Equal(got, doc) {
			t.Fatalf("ledger.bin=%q err=%v", got, err)
		}
		if got, err := ds.LoadLedger("sess"); err != nil || !bytes.Equal(got, doc) {
			t.Fatalf("load=%q err=%v", got, err)
		}
	}
	for _, stray := range []string{"ledger.bin.tmp", "ledger.json"} {
		if err := os.WriteFile(filepath.Join(dir, stray), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.RemoveLedger("sess"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("session directory survived RemoveLedger: %v", err)
	}
}

// The append-only journal: appends accumulate in order and survive
// independently of the snapshot; reset discards them; remove clears the
// whole session including the journal.
func TestDirStoreJournalAppendResetRemove(t *testing.T) {
	root := t.TempDir()
	ds, _ := NewDirStore(root)
	if j, err := ds.LoadJournal("sess"); err != nil || j != nil {
		t.Fatalf("missing journal should load empty: %v %v", j, err)
	}
	if err := ds.AppendLedger("sess", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := ds.AppendLedger("sess", []byte("def")); err != nil {
		t.Fatal(err)
	}
	if j, err := ds.LoadJournal("sess"); err != nil || string(j) != "abcdef" {
		t.Fatalf("journal=%q err=%v", j, err)
	}
	if err := ds.ResetJournal("sess"); err != nil {
		t.Fatal(err)
	}
	if j, err := ds.LoadJournal("sess"); err != nil || len(j) != 0 {
		t.Fatalf("journal after reset=%q err=%v", j, err)
	}
	if err := ds.AppendLedger("sess", []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveLedger("sess", []byte{0xAD, 'L', 'S', '2'}); err != nil {
		t.Fatal(err)
	}
	if err := ds.RemoveLedger("sess"); err != nil {
		t.Fatal(err)
	}
	if j, _ := ds.LoadJournal("sess"); len(j) != 0 {
		t.Fatalf("journal survived RemoveLedger: %q", j)
	}
	if entries, err := os.ReadDir(filepath.Join(root, ".automdt")); err == nil && len(entries) != 0 {
		t.Fatalf("session residue after remove: %v", entries)
	}
	if err := ds.AppendLedger("../escape", []byte("x")); err == nil {
		t.Fatal("path-escaping session id accepted by AppendLedger")
	}
}

// ListLedgers enumerates session directories (a journal append
// refreshes the age) and skips stray non-directory entries.
func TestDirStoreListLedgersNewLayout(t *testing.T) {
	root := t.TempDir()
	ds, _ := NewDirStore(root)
	if err := ds.SaveLedger("bin-sess", []byte{0xAD, 'L', 'S', '2'}); err != nil {
		t.Fatal(err)
	}
	if err := ds.AppendLedger("bin-sess", []byte("recs")); err != nil {
		t.Fatal(err)
	}
	if err := ds.AppendLedger("journal-only", []byte("recs")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, ".automdt", "flat-sess.ledger"), []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	infos, err := ds.ListLedgers()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, info := range infos {
		got[info.Session] = true
		if info.Age < 0 || info.Age > time.Minute {
			t.Fatalf("%s: implausible age %v", info.Session, info.Age)
		}
	}
	if len(got) != 2 || !got["bin-sess"] || !got["journal-only"] {
		t.Fatalf("ListLedgers = %v, want bin-sess and journal-only only", infos)
	}
}

// The synthetic store's journal mirrors the DirStore semantics in
// memory.
func TestSyntheticStoreJournal(t *testing.T) {
	s := NewSyntheticStore()
	if j, err := s.LoadJournal("sess"); err != nil || len(j) != 0 {
		t.Fatalf("missing journal should load empty: %v %v", j, err)
	}
	s.AppendLedger("sess", []byte("ab"))
	s.AppendLedger("sess", []byte("cd"))
	if j, _ := s.LoadJournal("sess"); string(j) != "abcd" {
		t.Fatalf("journal=%q", j)
	}
	if err := s.AppendLedger("../bad", nil); err == nil {
		t.Fatal("invalid session accepted")
	}
	s.ResetJournal("sess")
	if j, _ := s.LoadJournal("sess"); len(j) != 0 {
		t.Fatalf("journal after reset=%q", j)
	}
	s.AppendLedger("sess", []byte("zz"))
	s.RemoveLedger("sess")
	if j, _ := s.LoadJournal("sess"); len(j) != 0 {
		t.Fatalf("journal survived remove: %q", j)
	}
}
