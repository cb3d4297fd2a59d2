package transfer

import (
	"strings"
	"testing"

	"automdt/internal/fsim"
	"automdt/internal/wire"
	"automdt/internal/workload"
)

func ledgerManifest() workload.Manifest {
	return workload.Manifest{
		{Name: "a.bin", Size: 256<<10 + 17}, // 5 chunks at 64 KiB, odd tail
		{Name: "b.bin", Size: 64 << 10},     // exactly one chunk
		{Name: "empty", Size: 0},
	}
}

func TestLedgerCommitAccounting(t *testing.T) {
	m := ledgerManifest()
	l := NewLedger("s1", 64<<10, m, true)
	if l.CommittedBytes() != 0 || l.CommittedChunks() != 0 {
		t.Fatal("fresh ledger not empty")
	}
	if !l.Commit(0, 0, 64<<10, 0xAA) {
		t.Fatal("first commit rejected")
	}
	if l.Commit(0, 0, 64<<10, 0xAA) {
		t.Fatal("duplicate commit accepted")
	}
	if !l.Done(0, 0) || l.Done(0, 64<<10) {
		t.Fatal("Done bitmap wrong")
	}
	// Tail chunk of a.bin: 17 bytes at offset 256 KiB.
	if l.Commit(0, 256<<10, 64<<10, 0) {
		t.Fatal("wrong-length tail commit accepted")
	}
	if !l.Commit(0, 256<<10, 17, 0xBB) {
		t.Fatal("tail commit rejected")
	}
	// Misaligned and out-of-range commits must be rejected.
	if l.Commit(0, 13, 64<<10, 0) || l.Commit(9, 0, 64<<10, 0) || l.Commit(0, 1<<40, 64<<10, 0) {
		t.Fatal("bogus commit accepted")
	}
	if got := l.CommittedBytes(); got != 64<<10+17 {
		t.Fatalf("CommittedBytes=%d", got)
	}
	if l.FileComplete(0) {
		t.Fatal("incomplete file reported complete")
	}
	if !l.FileComplete(2) {
		t.Fatal("empty file must be trivially complete")
	}
}

func TestLedgerEncodeDecodeRoundTrip(t *testing.T) {
	m := ledgerManifest()
	l := NewLedger("s1", 64<<10, m, true)
	l.Commit(0, 64<<10, 64<<10, 0x11)
	l.Commit(0, 256<<10, 17, 0x22)
	l.Commit(1, 0, 64<<10, 0x33)
	got, err := DecodeLedger(l.EncodeV2())
	if err != nil {
		t.Fatal(err)
	}
	if got.SessionID != "s1" || got.ChunkBytes != 64<<10 || !got.HasSums {
		t.Fatalf("header lost: %+v", got)
	}
	if got.CommittedBytes() != l.CommittedBytes() {
		t.Fatalf("committed %d != %d", got.CommittedBytes(), l.CommittedBytes())
	}
	if !got.Done(0, 64<<10) || got.Done(0, 0) || !got.Done(1, 0) {
		t.Fatal("bitmap lost in round trip")
	}
	if err := got.Matches(m, 64<<10); err != nil {
		t.Fatal(err)
	}
	if err := got.Matches(m, 32<<10); err == nil {
		t.Fatal("chunk-size mismatch accepted")
	}
	m2 := append(workload.Manifest{}, m...)
	m2[0].Size++
	if err := got.Matches(m2, 64<<10); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := DecodeLedger([]byte(`{"schema":1,"session":"s1","chunk_bytes":65536,"files":[]}`)); err == nil || !strings.Contains(err.Error(), "not a ledger snapshot") {
		t.Fatalf("JSON document accepted as a snapshot: %v", err)
	}
}

func TestLedgerWireRoundTrip(t *testing.T) {
	m := ledgerManifest()
	l := NewLedger("s1", 64<<10, m, true)
	l.Commit(0, 0, 64<<10, 1)
	l.Commit(0, 128<<10, 64<<10, 2)
	states := l.WireStates()
	if len(states) != 1 || states[0].FileID != 0 || states[0].CommittedBytes != 128<<10 {
		t.Fatalf("states: %+v", states)
	}
	view := NewLedger("s1", 64<<10, m, false)
	view.ApplyWire(states)
	if view.CommittedBytes() != 128<<10 || !view.Done(0, 0) || view.Done(0, 64<<10) || !view.Done(0, 128<<10) {
		t.Fatalf("applied view wrong: committed=%d", view.CommittedBytes())
	}
	// A hostile bitmap with tail bits beyond the last chunk must not
	// inflate the committed count.
	view2 := NewLedger("s1", 64<<10, m, false)
	view2.ApplyWire([]wire.FileState{{FileID: 1, CommittedBytes: 1 << 40, Bitmap: []uint64{^uint64(0)}}})
	if got := view2.CommittedBytes(); got != 64<<10 {
		t.Fatalf("tail bits inflated committed to %d", got)
	}
}

func TestLedgerInvalidate(t *testing.T) {
	m := ledgerManifest()
	l := NewLedger("s1", 64<<10, m, true)
	for off := int64(0); off < 256<<10; off += 64 << 10 {
		l.Commit(0, off, 64<<10, 7)
	}
	l.Commit(0, 256<<10, 17, 7)
	if !l.FileComplete(0) {
		t.Fatal("file 0 should be complete")
	}
	if n := l.Invalidate(0, 64<<10, 2*64<<10); n != 2 {
		t.Fatalf("cleared %d chunks want 2", n)
	}
	if l.Done(0, 64<<10) || l.Done(0, 128<<10) || !l.Done(0, 0) || !l.Done(0, 192<<10) {
		t.Fatal("wrong chunks cleared")
	}
	if n := l.InvalidateFile(0); n != 3 {
		t.Fatalf("InvalidateFile cleared %d want 3", n)
	}
	if l.CommittedBytes() != 0 {
		t.Fatalf("committed %d after full invalidation", l.CommittedBytes())
	}
}

func TestLedgerFileCRCMatchesWholeFile(t *testing.T) {
	const chunk = 8 << 10
	m := workload.Manifest{{Name: "f.bin", Size: 3*chunk + 123}}
	l := NewLedger("s1", chunk, m, true)
	whole := make([]byte, m[0].Size)
	fsim.FillContent("f.bin", 0, whole)
	for off := int64(0); off < m[0].Size; off += chunk {
		end := off + chunk
		if end > m[0].Size {
			end = m[0].Size
		}
		l.Commit(0, off, int(end-off), wire.PayloadCRC(whole[off:end]))
	}
	crc, ok := l.FileCRC(0)
	if !ok {
		t.Fatal("FileCRC not available on complete file")
	}
	if want := wire.PayloadCRC(whole); crc != want {
		t.Fatalf("combined %#x want %#x", crc, want)
	}
}

// VerifyAgainst must keep ranges whose bytes still match, drop a file
// that disappeared, and drop exactly the chunks that were corrupted.
func TestLedgerVerifyAgainstStore(t *testing.T) {
	const chunk = 4 << 10
	m := workload.Manifest{
		{Name: "good.bin", Size: 3 * chunk},
		{Name: "gone.bin", Size: chunk},
		{Name: "corrupt.bin", Size: 2 * chunk},
	}
	dir := t.TempDir()
	ds, err := fsim.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLedger("s1", chunk, m, true)
	buf := make([]byte, chunk)
	for fi, f := range m {
		w, err := ds.Create(f.Name, f.Size)
		if err != nil {
			t.Fatal(err)
		}
		for off := int64(0); off < f.Size; off += chunk {
			fsim.FillContent(f.Name, off, buf)
			if _, err := w.WriteAt(buf, off); err != nil {
				t.Fatal(err)
			}
			l.Commit(uint32(fi), off, chunk, wire.PayloadCRC(buf))
		}
		w.Close()
	}
	// Lose one file entirely, corrupt one chunk of another.
	if err := removeStoreFile(t, dir, "gone.bin"); err != nil {
		t.Fatal(err)
	}
	corruptStoreFile(t, dir, "corrupt.bin", chunk+5)

	kept, cleared := l.VerifyAgainst(ds)
	if want := int64(3*chunk + chunk); kept != want { // good.bin + first chunk of corrupt.bin
		t.Fatalf("kept %d want %d (cleared %d)", kept, want, cleared)
	}
	if cleared != 2 { // gone.bin (1 chunk) + corrupt.bin chunk 1
		t.Fatalf("cleared %d ranges want 2", cleared)
	}
	if !l.Done(2, 0) || l.Done(2, chunk) || l.Done(1, 0) {
		t.Fatal("wrong ranges survived verification")
	}
}
