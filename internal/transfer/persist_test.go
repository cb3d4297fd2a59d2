package transfer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"automdt/internal/fsim"
	"automdt/internal/workload"
)

// flakyLedgerStore wraps a SyntheticStore and fails a configurable
// number of journal appends and snapshot saves — an ENOSPC-shaped
// outage that tears the journal and then clears up.
type flakyLedgerStore struct {
	*fsim.SyntheticStore
	failAppends int
	failSaves   int
	failResets  int
}

func (f *flakyLedgerStore) ResetJournal(session string) error {
	if f.failResets > 0 {
		f.failResets--
		return errors.New("flaky: reset failed")
	}
	return f.SyntheticStore.ResetJournal(session)
}

func (f *flakyLedgerStore) AppendLedger(session string, data []byte) error {
	if f.failAppends > 0 {
		f.failAppends--
		// Half the delta lands before the failure: a genuinely torn
		// journal, not a clean no-op.
		f.SyntheticStore.AppendLedger(session, data[:len(data)/2])
		return errors.New("flaky: append failed")
	}
	return f.SyntheticStore.AppendLedger(session, data)
}

func (f *flakyLedgerStore) SaveLedger(session string, data []byte) error {
	if f.failSaves > 0 {
		f.failSaves--
		return errors.New("flaky: save failed")
	}
	return f.SyntheticStore.SaveLedger(session, data)
}

// A store outage in the middle of journaled persistence must not lose
// acknowledged state once the store recovers: the delta drained during
// the failed append is carried, appends never resume past the torn
// record, and the first successful compaction makes the full ledger
// durable again.
func TestPersisterRecoversFromStoreOutage(t *testing.T) {
	const session = "flaky-outage"
	m := workload.Manifest{{Name: "f.bin", Size: 1 << 20}} // 16 chunks at 64 KiB
	store := &flakyLedgerStore{SyntheticStore: fsim.NewSyntheticStore()}
	l := NewLedger(session, 64<<10, m, true)
	p := newLedgerPersister(l, store, session, 1<<20)
	p.compact() // session start: empty snapshot

	commit := func(idx int) {
		if !l.Commit(0, int64(idx)*64<<10, 64<<10, uint32(idx)) {
			t.Fatalf("commit %d rejected", idx)
		}
	}
	commit(0)
	commit(1)
	p.tick() // healthy append

	// Outage: the next tick's append tears the journal, and the
	// recovery compaction fails too.
	store.failAppends = 1
	store.failSaves = 1
	commit(2)
	commit(3)
	p.tick()

	// Store still down for one more compaction attempt: ticks must keep
	// retrying compaction (never appending past the tear) without
	// dropping the carried delta.
	store.failSaves = 1
	commit(4)
	p.tick()

	// Store recovers; the next tick's compaction lands everything.
	commit(5)
	p.tick()

	got, err := LoadSessionLedger(store, session)
	if err != nil {
		t.Fatal(err)
	}
	if got.CommittedBytes() != l.CommittedBytes() {
		t.Fatalf("recovered state lost commits: %d want %d (outage swallowed the carried delta)",
			got.CommittedBytes(), l.CommittedBytes())
	}
	for idx := 0; idx < 6; idx++ {
		if !got.Done(0, int64(idx)*64<<10) {
			t.Fatalf("chunk %d lost across the outage", idx)
		}
	}
}

// A failed journal reset leaves the file opening with a dead
// generation, where replay ignores everything: the persister must keep
// compacting — never appending acknowledged records behind the dead
// header — until a reset lands.
func TestPersisterTreatsFailedResetAsTorn(t *testing.T) {
	const session = "flaky-reset"
	m := workload.Manifest{{Name: "f.bin", Size: 1 << 20}}
	store := &flakyLedgerStore{SyntheticStore: fsim.NewSyntheticStore()}
	l := NewLedger(session, 64<<10, m, true)

	// A stale journal from a previous generation is already on disk.
	store.AppendLedger(session, append(l.JournalHeader(), 0xFF, 0xFF))

	p := newLedgerPersister(l, store, session, 1<<20)
	store.failResets = 1
	p.compact() // snapshot lands, reset fails: journal head is now dead

	// Each commit must stay recoverable after every tick, even while
	// the only working path is compaction.
	for idx := 0; idx < 3; idx++ {
		if !l.Commit(0, int64(idx)*64<<10, 64<<10, uint32(idx)) {
			t.Fatalf("commit %d rejected", idx)
		}
		p.tick()
		got, err := LoadSessionLedger(store, session)
		if err != nil {
			t.Fatal(err)
		}
		if got.CommittedBytes() != l.CommittedBytes() {
			t.Fatalf("after commit %d: recoverable state %d want %d (records appended behind a dead journal header)",
				idx, got.CommittedBytes(), l.CommittedBytes())
		}
	}
}

// When the opening compaction's snapshot save fails, there is no
// on-disk header pairing a journal to the (stale) on-disk snapshot:
// ticks must retry compaction instead of appending records that replay
// could never reach.
func TestPersisterRetriesFailedOpeningCompaction(t *testing.T) {
	const session = "flaky-open"
	m := workload.Manifest{{Name: "f.bin", Size: 1 << 20}}
	store := &flakyLedgerStore{SyntheticStore: fsim.NewSyntheticStore()}

	// A previous process left a fully compacted session: snapshot on
	// disk, journal reset.
	prev := NewLedger(session, 64<<10, m, true)
	prev.Commit(0, 0, 64<<10, 0xA)
	store.SaveLedger(session, prev.EncodeV2())

	l, err := LoadSessionLedger(store, session)
	if err != nil {
		t.Fatal(err)
	}
	p := newLedgerPersister(l, store, session, 1<<20)
	store.failSaves = 1
	p.compact() // opening compaction fails: disk still holds the old generation

	l.Commit(0, 64<<10, 64<<10, 0xB)
	p.tick() // must retry the snapshot, not append an unreachable record
	got, err := LoadSessionLedger(store, session)
	if err != nil {
		t.Fatal(err)
	}
	if got.CommittedBytes() != l.CommittedBytes() {
		t.Fatalf("recoverable state %d want %d (records appended with no reachable header)",
			got.CommittedBytes(), l.CommittedBytes())
	}
}

// After a resume replays the journal, the opening compaction must fold
// the replayed ops into the snapshot and NOT re-journal them: the first
// post-resume tick appends only genuinely new work.
func TestPersisterDoesNotRejournalReplayedOps(t *testing.T) {
	const session = "replay-no-rejournal"
	m := workload.Manifest{{Name: "f.bin", Size: 1 << 20}}
	store := fsim.NewSyntheticStore()

	// A previous "process" left a snapshot + journal behind.
	prev := NewLedger(session, 64<<10, m, true)
	store.SaveLedger(session, prev.EncodeV2())
	header := prev.JournalHeader()
	for idx := 0; idx < 8; idx++ {
		prev.Commit(0, int64(idx)*64<<10, 64<<10, uint32(idx))
	}
	store.AppendLedger(session, append(header, prev.AppendSince()...))

	// Resume: load + replay, then the persister's opening compaction.
	l, err := LoadSessionLedger(store, session)
	if err != nil {
		t.Fatal(err)
	}
	p := newLedgerPersister(l, store, session, 1<<20)
	p.compact()
	if j, _ := store.LoadJournal(session); len(j) != 0 {
		t.Fatalf("journal not reset by the opening compaction: %d bytes", len(j))
	}

	// First post-resume tick: one new commit → the journal must hold
	// the header plus exactly one record, not the 8 replayed ones.
	l.Commit(0, 8*64<<10, 64<<10, 99)
	p.tick()
	j, _ := store.LoadJournal(session)
	one := len(appendJournalRecord(nil, ledgerOp{file: 0, lo: 8, sum: 99, commit: true}))
	if want := journalHeaderLen + one; len(j) != want {
		t.Fatalf("post-resume journal is %d bytes, want %d (replayed ops re-journaled)", len(j), want)
	}
}

// snapshotOnlyStore keeps ledger snapshots but has no journal, no Stat
// and no listing: less than the fsim.LedgerStore contract, so it is a
// plain fsim.Store to the receiver.
type snapshotOnlyStore struct {
	fsim.Store
	saves atomic.Int64
}

func (s *snapshotOnlyStore) SaveLedger(string, []byte) error {
	s.saves.Add(1)
	return nil
}

func (s *snapshotOnlyStore) LoadLedger(session string) ([]byte, error) {
	return nil, fmt.Errorf("ledger %q: %w", session, os.ErrNotExist)
}

func (s *snapshotOnlyStore) RemoveLedger(string) error { return nil }

// A destination that keeps only part of the ledger contract runs a named
// session one-shot: the transfer completes byte-correct and no ledger
// write is ever attempted, not even the opening compaction.
func TestPartialLedgerStoreRunsOneShot(t *testing.T) {
	dir := t.TempDir()
	inner, err := fsim.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	dst := &snapshotOnlyStore{Store: inner}
	m := workload.LargeFiles(3, 300<<10)
	cfg := testConfig()
	cfg.SessionID = "partial-store"
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	recv, recvErr := runReceiver(t, ctx, cfg, dst)
	send := &Sender{Cfg: cfg, Store: fsim.NewSyntheticStore(), Manifest: m}
	res, err := send.Run(ctx, recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-recvErr; err != nil {
		t.Fatal(err)
	}
	if res.Resumed || res.Bytes != m.TotalBytes() {
		t.Fatalf("one-shot session: resumed=%v bytes=%d want %d", res.Resumed, res.Bytes, m.TotalBytes())
	}
	if n := dst.saves.Load(); n != 0 {
		t.Fatalf("SaveLedger called %d times on a store outside the ledger contract", n)
	}
	for _, f := range m {
		got, err := os.ReadFile(filepath.Join(dir, f.Name))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, f.Size)
		fsim.FillContent(f.Name, 0, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s corrupt", f.Name)
		}
	}
}
