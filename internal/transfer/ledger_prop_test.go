package transfer

import (
	"fmt"
	"math/rand"
	"testing"

	"automdt/internal/workload"
)

// TestLedgerPersistReloadProperty drives a ledger through long random
// sequences of Commit / Invalidate / InvalidateFile, interleaved with
// persistence round trips through the binary snapshot and through the
// snapshot + journal pair maintained exactly the way the receiver's persister maintains it
// (delta appends per tick, occasional compaction) — and demands each
// reload reproduce the in-memory ledger exactly: bitmaps, per-chunk
// CRCs, per-file committed bytes, and the running totals.
func TestLedgerPersistReloadProperty(t *testing.T) {
	const chunk = 4 << 10
	m := workload.Manifest{
		{Name: "a.bin", Size: 37*chunk + 123}, // odd tail
		{Name: "b.bin", Size: chunk},          // single chunk
		{Name: "c.bin", Size: 64 * chunk},     // several bitmap words
		{Name: "empty", Size: 0},
	}
	for seed := int64(0); seed < 6; seed++ {
		for _, sums := range []bool{true, false} {
			t.Run(fmt.Sprintf("seed=%d/sums=%v", seed, sums), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				live := NewLedger("prop", chunk, m, sums)

				// The journaled replica mirrors what lands on a store:
				// a snapshot plus the records appended since.
				snapshot := live.EncodeV2()
				journal := live.JournalHeader()

				reloadAll := func(step int) {
					t.Helper()
					// Snapshot. EncodeV2 rotates the generation, so
					// re-pair the journal header with the *persisted*
					// snapshot, not this probe — decode the probe only.
					got2, err := DecodeLedger(live.EncodeV2())
					if err != nil {
						t.Fatalf("step %d: snapshot decode: %v", step, err)
					}
					assertLedgersEqual(t, live, got2)
					// Snapshot + journal replay.
					got3, err := DecodeLedger(snapshot)
					if err != nil {
						t.Fatalf("step %d: persisted snapshot decode: %v", step, err)
					}
					got3.ReplayJournal(journal)
					got3.AppendSince() // replay re-records; discard like compaction
					assertLedgersEqual(t, live, got3)
				}

				for step := 0; step < 400; step++ {
					fileID := uint32(rng.Intn(len(m)))
					f := m[fileID]
					nChunks := int((f.Size + chunk - 1) / chunk)
					switch op := rng.Intn(10); {
					case op < 6: // commit a random chunk
						if nChunks == 0 {
							continue
						}
						idx := rng.Intn(nChunks)
						off := int64(idx) * chunk
						clen := min(int64(chunk), f.Size-off)
						live.Commit(fileID, off, int(clen), rng.Uint32())
					case op < 8: // invalidate a random range
						if nChunks == 0 {
							continue
						}
						lo := rng.Intn(nChunks)
						span := 1 + rng.Intn(4)
						live.Invalidate(fileID, int64(lo)*chunk, int64(span)*chunk)
					case op < 9:
						live.InvalidateFile(fileID)
					default: // a bogus commit the ledger must reject untracked
						live.Commit(fileID, 13, chunk, 1)
						live.Commit(uint32(len(m)+3), 0, chunk, 1)
					}

					// Tick: drain the delta into the journal (the
					// persister's steady-state path).
					if recs := live.AppendSince(); recs != nil {
						journal = append(journal, recs...)
					}
					if rng.Intn(23) == 0 { // compaction
						snapshot = live.EncodeV2()
						journal = live.JournalHeader()
					}
					if rng.Intn(9) == 0 {
						reloadAll(step)
					}
				}
				reloadAll(400)

				// And the wire round trip (what a resume advertises)
				// must agree with the final state on committed ranges.
				view := NewLedger("prop", chunk, m, false)
				view.ApplyWire(live.WireStates())
				if view.CommittedBytes() != live.CommittedBytes() {
					t.Fatalf("wire view committed %d want %d", view.CommittedBytes(), live.CommittedBytes())
				}
			})
		}
	}
}
