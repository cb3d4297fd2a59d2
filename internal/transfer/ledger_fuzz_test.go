package transfer

import (
	"bytes"
	"testing"

	"automdt/internal/workload"
)

// fuzzManifest is the fixed dataset shape behind both ledger fuzzers.
func fuzzManifest() workload.Manifest {
	return workload.Manifest{
		{Name: "f0.bin", Size: 256<<10 + 17},
		{Name: "f1.bin", Size: 64 << 10},
		{Name: "empty", Size: 0},
	}
}

// FuzzLedgerV2Decode feeds arbitrary bytes to the ledger decoder:
// corrupt or truncated snapshots, and anything that is not a snapshot
// at all (the JSON seed is what pre-floor builds persisted), must error
// — never panic, never over-allocate — and anything accepted must
// survive a re-encode/re-decode byte-for-byte in observable state.
func FuzzLedgerV2Decode(f *testing.F) {
	m := fuzzManifest()
	empty := NewLedger("fz-empty", 64<<10, m, true)
	f.Add(empty.EncodeV2())
	part := NewLedger("fz-part", 64<<10, m, true)
	part.Commit(0, 0, 64<<10, 0x1111)
	part.Commit(0, 256<<10, 17, 0x2222)
	part.Commit(1, 0, 64<<10, 0x3333)
	f.Add(part.EncodeV2())
	nosums := NewLedger("fz-nosums", 64<<10, m, false)
	nosums.Commit(1, 0, 64<<10, 0)
	f.Add(nosums.EncodeV2())
	jsonDoc := []byte(`{"schema":1,"session":"fz-part","chunk_bytes":65536,"has_sums":true,"files":[{"name":"f1.bin","size":65536,"bitmap":[1],"sums":[13107]}]}`)
	if _, err := DecodeLedger(jsonDoc); err == nil {
		f.Fatal("a JSON document decoded as a ledger snapshot")
	}
	f.Add(jsonDoc)
	full := part.EncodeV2()
	f.Add(full[:len(full)/2])
	f.Add(full[:len(full)-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeLedger(data)
		if err != nil {
			return
		}
		re, err := DecodeLedger(l.EncodeV2())
		if err != nil {
			t.Fatalf("re-decode of accepted ledger failed: %v", err)
		}
		if re.SessionID != l.SessionID || re.ChunkBytes != l.ChunkBytes ||
			re.HasSums != l.HasSums || len(re.Files) != len(l.Files) ||
			re.CommittedBytes() != l.CommittedBytes() ||
			re.CommittedChunks() != l.CommittedChunks() {
			t.Fatalf("round trip drifted: %+v != %+v", re, l)
		}
		for i, wf := range l.Files {
			gf := re.Files[i]
			if gf.Name != wf.Name || gf.Size != wf.Size ||
				gf.Committed != wf.Committed || !bytes.Equal(u64bytes(gf.Bitmap), u64bytes(wf.Bitmap)) {
				t.Fatalf("file %d drifted in round trip", i)
			}
		}
	})
}

// u64bytes flattens a bitmap for comparison (nil and empty compare
// equal, which is the semantic the ledger wants).
func u64bytes(ws []uint64) []byte {
	var out []byte
	for _, w := range ws {
		for i := 0; i < 64; i += 8 {
			out = append(out, byte(w>>i))
		}
	}
	return out
}

// FuzzJournalReplay replays arbitrary journal bytes over a half-
// committed base ledger: replay must never panic, a corrupt or torn
// suffix must truncate cleanly at the last valid record, and whatever
// state results must stay internally consistent — committed-byte
// accounting must match the bitmaps exactly (re-derived by an
// encode/decode round trip), so a forged journal can never resurrect
// bytes the bitmaps don't back.
func FuzzJournalReplay(f *testing.F) {
	m := fuzzManifest()
	base := func() *Ledger {
		l := NewLedger("fz-journal", 64<<10, m, true)
		l.EncodeV2() // pin a generation so valid seed journals can match
		l.Commit(0, 0, 64<<10, 0xAA)
		l.Commit(1, 0, 64<<10, 0xBB)
		l.AppendSince()
		return l
	}
	l0 := base()
	valid := l0.JournalHeader()
	l0.Commit(0, 64<<10, 64<<10, 0xCC)
	l0.Invalidate(0, 0, 64<<10)
	valid = append(valid, l0.AppendSince()...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:journalHeaderLen+1])
	mut := bytes.Clone(valid)
	mut[journalHeaderLen+2] ^= 0xFF
	f.Add(mut)

	f.Fuzz(func(t *testing.T, journal []byte) {
		l := base()
		gen := l.gen // the fuzzed bytes rarely guess it; graft it in when long enough
		if len(journal) >= journalHeaderLen && bytes.Equal(journal[0:4], journalMagic[:]) {
			grafted := bytes.Clone(journal)
			copy(grafted[4:12], l.JournalHeader()[4:12])
			journal = grafted
			_ = gen
		}
		l.ReplayJournal(journal)
		// Accounting invariant: a decode recomputes committed bytes and
		// chunks from the bitmaps alone; replay must have kept the live
		// counters in exact agreement.
		re, err := DecodeLedger(l.EncodeV2())
		if err != nil {
			t.Fatalf("post-replay ledger does not re-encode: %v", err)
		}
		if re.CommittedBytes() != l.CommittedBytes() || re.CommittedChunks() != l.CommittedChunks() {
			t.Fatalf("replay corrupted accounting: bytes %d vs %d, chunks %d vs %d",
				l.CommittedBytes(), re.CommittedBytes(), l.CommittedChunks(), re.CommittedChunks())
		}
		// Sums must be recorded for every committed chunk (FileCRC
		// folds them; a resurrected chunk without a real sum would
		// poison end-to-end verification silently).
		for i := range l.Files {
			if l.Files[i].Committed > 0 && l.Files[i].Sums == nil {
				t.Fatalf("file %d committed %d bytes with no sums", i, l.Files[i].Committed)
			}
		}
	})
}
