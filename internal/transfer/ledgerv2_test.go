package transfer

import (
	"bytes"
	"testing"

	"automdt/internal/fsim"
	"automdt/internal/workload"
)

// assertLedgersEqual compares two ledgers' full observable state:
// header, per-file bitmaps and committed bytes, per-chunk sums, and the
// running totals. It is the oracle for every persist/reload test.
func assertLedgersEqual(t *testing.T, want, got *Ledger) {
	t.Helper()
	if got.SessionID != want.SessionID || got.ChunkBytes != want.ChunkBytes || got.HasSums != want.HasSums {
		t.Fatalf("header mismatch: got {%s %d %v} want {%s %d %v}",
			got.SessionID, got.ChunkBytes, got.HasSums, want.SessionID, want.ChunkBytes, want.HasSums)
	}
	if got.CommittedBytes() != want.CommittedBytes() {
		t.Fatalf("CommittedBytes %d want %d", got.CommittedBytes(), want.CommittedBytes())
	}
	if got.CommittedChunks() != want.CommittedChunks() {
		t.Fatalf("CommittedChunks %d want %d", got.CommittedChunks(), want.CommittedChunks())
	}
	if len(got.Files) != len(want.Files) {
		t.Fatalf("%d files want %d", len(got.Files), len(want.Files))
	}
	for i, wf := range want.Files {
		gf := got.Files[i]
		if gf.Name != wf.Name || gf.Size != wf.Size || gf.Committed != wf.Committed {
			t.Fatalf("file %d: got {%s %d %d} want {%s %d %d}",
				i, gf.Name, gf.Size, gf.Committed, wf.Name, wf.Size, wf.Committed)
		}
		n := want.chunks(wf.Size)
		for c := 0; c < n; c++ {
			ws := wf.Bitmap != nil && bitSet(wf.Bitmap, c)
			gs := gf.Bitmap != nil && bitSet(gf.Bitmap, c)
			if ws != gs {
				t.Fatalf("file %d chunk %d: committed=%v want %v", i, c, gs, ws)
			}
			if ws && want.HasSums && gf.Sums[c] != wf.Sums[c] {
				t.Fatalf("file %d chunk %d: sum %#x want %#x", i, c, gf.Sums[c], wf.Sums[c])
			}
		}
	}
}

func TestLedgerV2EncodeDecodeRoundTrip(t *testing.T) {
	m := ledgerManifest()
	for _, sums := range []bool{true, false} {
		l := NewLedger("v2-rt", 64<<10, m, sums)
		l.Commit(0, 0, 64<<10, 0x11)
		l.Commit(0, 256<<10, 17, 0x22)
		l.Commit(1, 0, 64<<10, 0x33)
		l.Invalidate(0, 0, 1)
		got, err := DecodeLedger(l.EncodeV2())
		if err != nil {
			t.Fatalf("sums=%v: %v", sums, err)
		}
		assertLedgersEqual(t, l, got)
		if err := got.Matches(m, 64<<10); err != nil {
			t.Fatal(err)
		}
	}
}

// Flipping any byte of a v2 snapshot must fail the whole-document CRC
// (or, for flips inside the trailer, the same check from the other
// side) — a corrupt snapshot never half-loads.
func TestLedgerV2DecodeRejectsCorruption(t *testing.T) {
	l := NewLedger("v2-corrupt", 32<<10, ledgerManifest(), true)
	l.Commit(0, 0, 32<<10, 0xAB)
	data := l.EncodeV2()
	for off := 0; off < len(data); off++ {
		mut := bytes.Clone(data)
		mut[off] ^= 0x01
		if _, err := DecodeLedger(mut); err == nil {
			t.Fatalf("flip at %d accepted", off)
		}
	}
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := DecodeLedger(data[:cut]); err == nil {
			t.Fatalf("truncation to %d accepted", cut)
		}
	}
}

func TestJournalReplayReproducesState(t *testing.T) {
	m := ledgerManifest()
	live := NewLedger("v2-journal", 64<<10, m, true)
	snap := live.EncodeV2()
	journal := live.JournalHeader()

	live.Commit(0, 0, 64<<10, 1)
	live.Commit(0, 64<<10, 64<<10, 2)
	live.Commit(1, 0, 64<<10, 3)
	journal = append(journal, live.AppendSince()...)
	live.Invalidate(0, 64<<10, 64<<10)
	live.Commit(0, 256<<10, 17, 4)
	journal = append(journal, live.AppendSince()...)

	got, err := DecodeLedger(snap)
	if err != nil {
		t.Fatal(err)
	}
	if applied := got.ReplayJournal(journal); applied != 5 {
		t.Fatalf("applied %d records want 5 (4 commits + 1 invalidation)", applied)
	}
	got.AppendSince() // replay re-records ops; drop them like a compaction would
	live.AppendSince()
	assertLedgersEqual(t, live, got)
}

// A journal whose generation doesn't match the snapshot — compaction
// leftovers after a crash between the snapshot rename and the journal
// truncate — must be ignored wholesale, never replayed onto the wrong
// base.
func TestJournalReplayRejectsGenerationMismatch(t *testing.T) {
	m := ledgerManifest()
	l := NewLedger("v2-gen", 64<<10, m, true)
	l.EncodeV2()
	stale := l.JournalHeader()
	l.Commit(0, 0, 64<<10, 9)
	stale = append(stale, l.AppendSince()...)

	l.EncodeV2() // compaction: new generation
	fresh, err := DecodeLedger(l.EncodeV2())
	if err != nil {
		t.Fatal(err)
	}
	if applied := fresh.ReplayJournal(stale); applied != 0 {
		t.Fatalf("stale journal applied %d records", applied)
	}
	if applied := fresh.ReplayJournal(nil); applied != 0 {
		t.Fatal("nil journal applied records")
	}
}

// A torn tail — the partial record of a crash mid-append — must
// truncate replay at the last valid record, and corrupting any byte of
// the tail record must discard that record, never apply it.
func TestJournalReplayTruncatesTornTail(t *testing.T) {
	m := ledgerManifest()
	build := func() (*Ledger, []byte, []byte) {
		l := NewLedger("v2-torn", 64<<10, m, true)
		snap := l.EncodeV2()
		j := l.JournalHeader()
		l.Commit(0, 0, 64<<10, 1)
		l.Commit(0, 64<<10, 64<<10, 2)
		j = append(j, l.AppendSince()...)
		return l, snap, j
	}
	_, snap, journal := build()
	for cut := journalHeaderLen; cut < len(journal); cut++ {
		got, err := DecodeLedger(snap)
		if err != nil {
			t.Fatal(err)
		}
		applied := got.ReplayJournal(journal[:cut])
		if applied > 1 {
			t.Fatalf("cut %d: %d records from a torn journal", cut, applied)
		}
		// The second commit (chunk 1) lives in the tail record; a torn
		// tail must never resurrect it.
		if got.Done(0, 64<<10) {
			t.Fatalf("cut %d: torn record resurrected chunk 1", cut)
		}
	}
	for off := journalHeaderLen; off < len(journal); off++ {
		got, err := DecodeLedger(snap)
		if err != nil {
			t.Fatal(err)
		}
		mut := bytes.Clone(journal)
		mut[off] ^= 0x01
		got.ReplayJournal(mut)
		if got.CommittedChunks() > 2 {
			t.Fatalf("flip at %d: corrupt journal grew the ledger", off)
		}
	}
}

// LoadSessionLedger folds the persisted journal into the snapshot —
// through a real DirStore, exactly the files a crashed receiver leaves.
func TestLoadSessionLedgerFoldsJournal(t *testing.T) {
	dir := t.TempDir()
	ds, err := fsim.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const session = "fold-journal"
	m := workload.Manifest{{Name: "x.bin", Size: 256 << 10}}
	live := NewLedger(session, 64<<10, m, true)
	if err := ds.SaveLedger(session, live.EncodeV2()); err != nil {
		t.Fatal(err)
	}
	live.Commit(0, 0, 64<<10, 0xA)
	live.Commit(0, 128<<10, 64<<10, 0xB)
	recs := append(live.JournalHeader(), live.AppendSince()...)
	if err := ds.AppendLedger(session, recs); err != nil {
		t.Fatal(err)
	}

	got, err := LoadSessionLedger(ds, session)
	if err != nil {
		t.Fatal(err)
	}
	got.AppendSince()
	live.AppendSince()
	assertLedgersEqual(t, live, got)
}
