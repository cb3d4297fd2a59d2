package chaos

import (
	"errors"
	"syscall"
	"testing"
	"time"

	"automdt/internal/fsim"
)

func newFlaky(t *testing.T, f DiskFault) (*FlakyStore, *fsim.SyntheticStore) {
	t.Helper()
	inner := fsim.NewSyntheticStore()
	inner.Verify = true
	s, err := NewFlakyStore(inner, f, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.sleep = func(time.Duration) {}
	return s, inner
}

func TestFlakyStoreCleanPassthrough(t *testing.T) {
	s, inner := newFlaky(t, DiskFault{})
	w, err := s.Create("f", 1024)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	fsim.FillContent("f", 0, buf)
	if n, err := w.WriteAt(buf, 0); n != 1024 || err != nil {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if inner.TotalWritten() != 1024 {
		t.Fatalf("inner TotalWritten = %d", inner.TotalWritten())
	}
}

func TestFlakyStoreFailEveryN(t *testing.T) {
	s, inner := newFlaky(t, DiskFault{FailEveryN: 3})
	w, _ := s.Create("f", 1<<20)
	buf := make([]byte, 100)
	var fails int
	for i := 0; i < 9; i++ {
		fsim.FillContent("f", int64(i)*100, buf)
		n, err := w.WriteAt(buf, int64(i)*100)
		if err != nil {
			if !errors.Is(err, ErrInjectedDiskFault) || n != 0 {
				t.Fatalf("write %d: n=%d err=%v", i, n, err)
			}
			fails++
		}
	}
	if fails != 3 {
		t.Fatalf("%d injected failures over 9 writes with FailEveryN=3", fails)
	}
	if got := inner.TotalWritten(); got != 600 {
		t.Fatalf("inner TotalWritten = %d, want 600", got)
	}
}

func TestFlakyStoreShortWriteCommitsReportedPrefix(t *testing.T) {
	s, inner := newFlaky(t, DiskFault{ShortEveryN: 1})
	w, _ := s.Create("f", 1<<20)
	buf := make([]byte, 4096)
	fsim.FillContent("f", 0, buf)
	n, err := w.WriteAt(buf, 0)
	if err == nil || !errors.Is(err, ErrInjectedDiskFault) {
		t.Fatalf("short write returned err=%v", err)
	}
	if n >= len(buf) {
		t.Fatalf("short write reported full count %d", n)
	}
	// Verify=true means a wrong byte would have errored; committed size
	// must match the reported count exactly.
	if got := inner.WrittenBytes("f"); got != int64(n) {
		t.Fatalf("inner committed %d bytes, wrapper reported %d", got, n)
	}
	if errs := inner.Errors(); len(errs) != 0 {
		t.Fatalf("content verification failures: %v", errs)
	}
}

func TestFlakyStoreENOSPCBudgetSharedWithLedger(t *testing.T) {
	s, inner := newFlaky(t, DiskFault{CapacityBytes: 1000})
	w, _ := s.Create("f", 1<<20)
	buf := make([]byte, 600)
	fsim.FillContent("f", 0, buf)
	if n, err := w.WriteAt(buf, 0); n != 600 || err != nil {
		t.Fatalf("first write: n=%d err=%v", n, err)
	}
	if err := s.SaveLedger("sess", make([]byte, 300)); err != nil {
		t.Fatalf("ledger within budget: %v", err)
	}
	// 100 bytes left: data write commits a 100-byte prefix then ENOSPC.
	fsim.FillContent("f", 600, buf)
	n, err := w.WriteAt(buf, 600)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("over-budget write: n=%d err=%v, want ENOSPC", n, err)
	}
	if n != 100 {
		t.Fatalf("over-budget write committed %d, want the 100 remaining", n)
	}
	// Ledger writes past the budget fail atomically: nothing committed,
	// the previous ledger still loads.
	if err := s.AppendLedger("sess", make([]byte, 50)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("ledger append past budget: %v, want ENOSPC", err)
	}
	if got, err := s.LoadLedger("sess"); err != nil || len(got) != 300 {
		t.Fatalf("prior ledger after ENOSPC: %d bytes, err=%v", len(got), err)
	}
	if j, err := s.LoadJournal("sess"); err != nil || len(j) != 0 {
		t.Fatalf("journal after failed append: %d bytes, err=%v", len(j), err)
	}
	if got := s.LedgerBytes(); got != 300 {
		t.Fatalf("LedgerBytes = %d, want 300", got)
	}
	if got := inner.TotalWritten(); got != 700 {
		t.Fatalf("inner TotalWritten = %d, want 700", got)
	}
	if s.Faults() == 0 {
		t.Fatal("no faults counted")
	}
}

func TestFlakyStoreForwardsLedgerCapabilities(t *testing.T) {
	s, _ := newFlaky(t, DiskFault{})
	// The whole contract, statically: a FlakyStore is a resumable
	// destination, so its sessions keep their ledgers.
	var _ fsim.LedgerStore = s
	var store fsim.Store = s
	if _, ok := store.(fsim.Stater); !ok {
		t.Fatal("FlakyStore lost Stater")
	}
	if _, ok := store.(fsim.LedgerStore); !ok {
		t.Fatal("FlakyStore lost the LedgerStore contract")
	}
	if _, ok := store.(fsim.LedgerAppender); !ok {
		t.Fatal("FlakyStore lost LedgerAppender")
	}
	if _, ok := store.(fsim.LedgerLister); !ok {
		t.Fatal("FlakyStore lost LedgerLister")
	}
	if err := s.SaveLedger("a", []byte("xy")); err != nil {
		t.Fatal(err)
	}
	ls, err := s.ListLedgers()
	if err != nil || len(ls) != 1 || ls[0].Session != "a" {
		t.Fatalf("ListLedgers = %v, %v", ls, err)
	}
	if err := s.RemoveLedger("a"); err != nil {
		t.Fatal(err)
	}
}

func TestFlakyStoreRejectsBareStore(t *testing.T) {
	if _, err := NewFlakyStore(bareStore{}, DiskFault{}, 1); err == nil {
		t.Fatal("bare store accepted")
	}
}

type bareStore struct{}

func (bareStore) Open(string, int64) (fsim.FileReader, error)   { return nil, errors.New("no") }
func (bareStore) Create(string, int64) (fsim.FileWriter, error) { return nil, errors.New("no") }
