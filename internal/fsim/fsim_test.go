package fsim

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
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

func TestSyntheticWriterVerifyCatchesCorruption(t *testing.T) {
	s := NewSyntheticStore()
	s.Verify = true
	w, _ := s.Create("v.dat", 100)
	buf := make([]byte, 100)
	FillContent("v.dat", 0, buf)
	buf[50] ^= 0xFF
	if _, err := w.WriteAt(buf, 0); err == nil {
		t.Fatal("corruption not detected")
	}
	if len(s.Errors()) == 0 {
		t.Fatal("error not recorded")
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

// Property: synthetic reader output always matches FillContent at any
// offset/length.
func TestQuickReaderMatchesFill(t *testing.T) {
	s := NewSyntheticStore()
	f := func(off uint16, n uint8) bool {
		size := int64(1 << 16)
		r, _ := s.Open("q.dat", size)
		defer r.Close()
		length := int(n)%128 + 1
		o := int64(off) % (size - 200)
		got := make([]byte, length)
		want := make([]byte, length)
		if _, err := r.ReadAt(got, o); err != nil {
			return false
		}
		FillContent("q.dat", o, want)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
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
