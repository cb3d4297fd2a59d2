package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"time"

	"automdt/internal/fsim"
)

// ErrInjectedDiskFault marks a data write that the flaky store failed on
// purpose (transient fault or short write). ErrDiskFull (ENOSPC) is
// reported via syscall.ENOSPC wrapping so errors.Is(err, syscall.ENOSPC)
// holds, the same way a real filesystem surfaces it.
var ErrInjectedDiskFault = fmt.Errorf("chaos: injected disk fault")

// DiskFault declares destination-disk pathology for one scenario cell.
// The zero value injects nothing.
type DiskFault struct {
	Name string `json:"name"`
	// WriteDelayMs is a fixed latency added to every data write,
	// emulating a slow (cold HDD / contended) destination.
	WriteDelayMs float64 `json:"write_delay_ms,omitempty"`
	// FailEveryN makes every Nth data write fail transiently without
	// committing any bytes (0 = never).
	FailEveryN int `json:"fail_every_n,omitempty"`
	// ShortEveryN makes every Nth data write commit only a random
	// prefix and return an error with the short count (0 = never).
	ShortEveryN int `json:"short_every_n,omitempty"`
	// CapacityBytes is a hard byte budget shared by data and ledger
	// writes; once spent, further writes fail with ENOSPC (0 = unlimited).
	CapacityBytes int64 `json:"capacity_bytes,omitempty"`
}

// FlakyStore decorates an fsim store with DiskFault pathology and counts
// the bytes the underlying store durably accepted, split into data vs
// ledger/journal — the source of the matrix's ledger-bytes aggregate.
// Faults never lie about success: an injected failure commits at most
// the prefix it reports, and ledger saves/appends fail atomically
// (nothing committed), so any ledger that loads is a valid prefix of
// what the receiver acknowledged.
type FlakyStore struct {
	inner fsim.LedgerStore
	fault DiskFault
	sleep func(time.Duration)

	mu        sync.Mutex
	rng       *rand.Rand
	writes    int64 // data writes attempted, for the EveryN counters
	remaining int64 // capacity left; only meaningful if capped
	capped    bool

	ledgerBytes int64
	faults      int64
}

// NewFlakyStore decorates inner with f, drawing short-write prefixes
// from a stream seeded with seed. inner must be a fsim.LedgerStore
// (SyntheticStore and DirStore both are), so resume semantics stay
// observable under the injected faults.
func NewFlakyStore(inner fsim.Store, f DiskFault, seed int64) (*FlakyStore, error) {
	fs, ok := inner.(fsim.LedgerStore)
	if !ok {
		return nil, fmt.Errorf("chaos: store %T lacks ledger capabilities; wrap a SyntheticStore or DirStore", inner)
	}
	return &FlakyStore{
		inner:     fs,
		fault:     f,
		sleep:     time.Sleep,
		rng:       rand.New(rand.NewSource(seed)),
		remaining: f.CapacityBytes,
		capped:    f.CapacityBytes > 0,
	}, nil
}

// LedgerBytes reports ledger+journal bytes durably accepted.
func (s *FlakyStore) LedgerBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledgerBytes
}

// Faults reports how many injected failures the store has served.
func (s *FlakyStore) Faults() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

// planWrite decides one data write's fate: how many of n bytes to
// commit, and the error to return alongside. It also spends capacity
// for the committed prefix.
func (s *FlakyStore) planWrite(n int) (commit int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	if s.fault.FailEveryN > 0 && s.writes%int64(s.fault.FailEveryN) == 0 {
		s.faults++
		return 0, ErrInjectedDiskFault
	}
	commit = n
	if s.fault.ShortEveryN > 0 && s.writes%int64(s.fault.ShortEveryN) == 0 {
		s.faults++
		commit = s.rng.Intn(n)
		err = fmt.Errorf("chaos: injected short write (%d of %d): %w", commit, n, ErrInjectedDiskFault)
	}
	if s.capped && int64(commit) > s.remaining {
		s.faults++
		commit = int(s.remaining)
		err = fmt.Errorf("chaos: destination full after %d more bytes: %w", commit, syscall.ENOSPC)
	}
	s.remaining -= int64(commit)
	return commit, err
}

// spendLedger spends capacity for an all-or-nothing ledger write.
func (s *FlakyStore) spendLedger(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capped && int64(n) > s.remaining {
		s.faults++
		return fmt.Errorf("chaos: no space for %d-byte ledger write: %w", n, syscall.ENOSPC)
	}
	s.remaining -= int64(n)
	s.ledgerBytes += int64(n)
	return nil
}

// refundLedger returns capacity/accounting for a ledger write the inner
// store rejected after we had already spent it.
func (s *FlakyStore) refundLedger(n int) {
	s.mu.Lock()
	s.remaining += int64(n)
	s.ledgerBytes -= int64(n)
	s.mu.Unlock()
}

func (s *FlakyStore) Open(name string, size int64) (fsim.FileReader, error) {
	return s.inner.Open(name, size)
}

func (s *FlakyStore) Create(name string, size int64) (fsim.FileWriter, error) {
	w, err := s.inner.Create(name, size)
	if err != nil {
		return nil, err
	}
	return &flakyWriter{inner: w, store: s}, nil
}

func (s *FlakyStore) Stat(name string) (int64, error) { return s.inner.Stat(name) }

func (s *FlakyStore) SaveLedger(session string, data []byte) error {
	if err := s.spendLedger(len(data)); err != nil {
		return err
	}
	if err := s.inner.SaveLedger(session, data); err != nil {
		s.refundLedger(len(data))
		return err
	}
	return nil
}

func (s *FlakyStore) LoadLedger(session string) ([]byte, error) {
	return s.inner.LoadLedger(session)
}

func (s *FlakyStore) RemoveLedger(session string) error {
	return s.inner.RemoveLedger(session)
}

func (s *FlakyStore) AppendLedger(session string, data []byte) error {
	if err := s.spendLedger(len(data)); err != nil {
		return err
	}
	if err := s.inner.AppendLedger(session, data); err != nil {
		s.refundLedger(len(data))
		return err
	}
	return nil
}

func (s *FlakyStore) LoadJournal(session string) ([]byte, error) {
	return s.inner.LoadJournal(session)
}

func (s *FlakyStore) ResetJournal(session string) error {
	return s.inner.ResetJournal(session)
}

func (s *FlakyStore) ListLedgers() ([]fsim.LedgerInfo, error) {
	return s.inner.ListLedgers()
}

// flakyWriter applies the store's data-write pathology to one file.
type flakyWriter struct {
	inner fsim.FileWriter
	store *FlakyStore
}

func (w *flakyWriter) WriteAt(p []byte, off int64) (int, error) {
	if d := w.store.fault.WriteDelayMs; d > 0 {
		w.store.sleep(time.Duration(d * float64(time.Millisecond)))
	}
	if len(p) == 0 {
		return w.inner.WriteAt(p, off)
	}
	commit, ferr := w.store.planWrite(len(p))
	n := 0
	if commit > 0 {
		var err error
		if n, err = w.inner.WriteAt(p[:commit], off); err != nil {
			return n, err
		}
	}
	return n, ferr
}

func (w *flakyWriter) Close() error { return w.inner.Close() }
