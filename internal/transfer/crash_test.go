package transfer

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"automdt/internal/fsim"
	"automdt/internal/workload"
)

// crashStore wraps a DirStore and simulates a receiver process dying at
// one precise point in the ledger persistence protocol. Once the crash
// point trips, the receiver's context is cancelled and every later
// control-plane write is refused — the "process" is dead, whatever the
// still-unwinding goroutines try. Data-plane writes are left alone:
// chunks that reached the disk but not the ledger are the safe
// direction (they are re-sent, never trusted).
type crashStore struct {
	*fsim.DirStore
	mode string // "torn-append", "compact-nosave", "compact-noreset"
	// armAfter is how many journal appends must succeed before the
	// crash point arms, so the kill lands mid-transfer with real
	// progress journaled.
	armAfter int32
	appends  atomic.Int32
	tripped  atomic.Bool
	dead     atomic.Bool
	kill     context.CancelFunc
}

var errCrashed = errors.New("crash injection: receiver is dead")

func (c *crashStore) trip() {
	c.tripped.Store(true)
	c.dead.Store(true)
	c.kill()
}

func (c *crashStore) AppendLedger(session string, data []byte) error {
	if c.dead.Load() {
		return errCrashed
	}
	n := c.appends.Add(1)
	if c.mode == "torn-append" && n > c.armAfter && !c.tripped.Load() {
		// The process dies mid-write: half the delta reaches the
		// journal, tearing the record at the cut.
		c.DirStore.AppendLedger(session, data[:len(data)/2])
		c.trip()
		return errCrashed
	}
	return c.DirStore.AppendLedger(session, data)
}

func (c *crashStore) SaveLedger(session string, data []byte) error {
	if c.dead.Load() {
		return errCrashed
	}
	armed := c.appends.Load() > c.armAfter && !c.tripped.Load()
	switch {
	case c.mode == "compact-nosave" && armed:
		// Death before the snapshot rename: the previous snapshot and
		// the journal survive untouched.
		c.trip()
		return errCrashed
	case c.mode == "compact-noreset" && armed:
		// The fresh snapshot lands, then death before the journal
		// truncate: the stale journal (older generation) survives next
		// to the new snapshot and must be ignored on resume.
		err := c.DirStore.SaveLedger(session, data)
		c.trip()
		return err
	}
	return c.DirStore.SaveLedger(session, data)
}

func (c *crashStore) ResetJournal(session string) error {
	if c.dead.Load() {
		return errCrashed
	}
	return c.DirStore.ResetJournal(session)
}

func (c *crashStore) RemoveLedger(session string) error {
	if c.dead.Load() {
		return errCrashed
	}
	return c.DirStore.RemoveLedger(session)
}

// TestCrashRecoveryAtInjectedPoints kills the receiver at each fragile
// point of the snapshot+journal protocol — mid-journal-append (a torn
// record on disk), mid-compaction before the snapshot rename, and
// between the snapshot rename and the journal truncate — then resumes
// against the surviving files and requires: the persisted state always
// loads (a torn record is truncated, never trusted), the resume
// re-sends less than 10% of the bytes the ledger had committed, and the
// final dataset is byte-correct.
func TestCrashRecoveryAtInjectedPoints(t *testing.T) {
	for _, mode := range []string{"torn-append", "compact-nosave", "compact-noreset"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			session := "crash-" + mode
			m := workload.LargeFiles(4, 2<<20) // 8 MiB
			total := m.TotalBytes()
			src := fsim.NewSyntheticStore()

			cfg := testConfig()
			cfg.SessionID = session
			cfg.ProbeInterval = 10 * time.Millisecond // frequent journal appends
			cfg.InitialThreads = 4
			cfg.Shaping.LinkMbps = 150 // keep the crash point mid-flight
			if mode != "torn-append" {
				// Tiny floor: the journal outgrows the (near-empty)
				// snapshot almost immediately, so a compaction follows
				// the arming appends within a tick or two.
				cfg.LedgerCompactBytes = 1
			}

			inner, err := fsim.NewDirStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			rctx, rcancel := context.WithCancel(context.Background())
			defer rcancel()
			cs := &crashStore{DirStore: inner, mode: mode, armAfter: 3, kill: rcancel}
			recv := NewReceiver(cfg, cs)
			if err := recv.Listen("127.0.0.1:0", "127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			recvErr := make(chan error, 1)
			go func() { recvErr <- recv.ServeN(rctx, 1) }()

			send := &Sender{Cfg: cfg, Store: src, Manifest: m}
			ctx1, cancel1 := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel1()
			if _, err := send.Run(ctx1, recv.DataAddr(), recv.CtrlAddr()); err == nil {
				t.Fatal("sender survived the injected receiver crash")
			}
			<-recvErr
			if !cs.tripped.Load() {
				t.Fatalf("crash point %q never tripped; injection did not land", mode)
			}

			// A fresh process view of the wreckage: the persisted state
			// must load cleanly whatever the crash tore.
			after, err := fsim.NewDirStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			wreck, err := LoadSessionLedger(after, session)
			if err != nil {
				t.Fatalf("persisted state unreadable after %s: %v", mode, err)
			}
			committed := wreck.CommittedBytes()
			if committed <= 0 || committed >= total {
				t.Fatalf("committed %d of %d; crash did not land mid-flight", committed, total)
			}

			// Resume against the surviving files and finish the job.
			cfg2 := cfg
			cfg2.Shaping = Shaping{}
			cfg2.LedgerCompactBytes = 0
			ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel2()
			recv2, recvErr2 := runReceiver(t, ctx2, cfg2, after)
			send2 := &Sender{Cfg: cfg2, Store: src, Manifest: m}
			res, err := send2.Run(ctx2, recv2.DataAddr(), recv2.CtrlAddr())
			if err != nil {
				t.Fatal(err)
			}
			if rerr := <-recvErr2; rerr != nil {
				t.Fatal(rerr)
			}
			if !res.Resumed || res.SessionID != session {
				t.Fatalf("second run did not resume: %+v", res)
			}
			if res.SkippedBytes != committed {
				// The receiver must trust exactly what a fresh load
				// trusts — no more (a torn record resurrected), no less
				// (valid records dropped).
				t.Fatalf("receiver skipped %d, persisted state held %d", res.SkippedBytes, committed)
			}
			missing := total - committed
			if resent := res.WireBytes - missing; resent < 0 || resent > committed/10 {
				t.Fatalf("wire bytes %d for %d missing: re-sent %d > 10%% of committed %d",
					res.WireBytes, missing, resent, committed)
			}

			if _, err := after.LoadLedger(session); !errors.Is(err, os.ErrNotExist) {
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
					t.Fatalf("%s corrupt after crash recovery", f.Name)
				}
			}
		})
	}
}
