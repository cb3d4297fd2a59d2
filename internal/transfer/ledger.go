package transfer

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"math/bits"
	"sync"

	"automdt/internal/fsim"
	"automdt/internal/metrics"
	"automdt/internal/wire"
	"automdt/internal/workload"
)

// Ledger is a session's chunk ledger: per file, a bitmap of chunk ranges
// committed to the destination store, plus (when the session runs with
// checksums) the per-chunk CRC-32C sums that make committed ranges
// re-verifiable after a restart. It is the control-plane document behind
// resumable transfers — the receiver maintains and persists it, the
// Welcome handshake advertises it, and the sender plans only the ranges
// it does not cover. Safe for concurrent use.
type Ledger struct {
	mu sync.Mutex

	SessionID  string
	ChunkBytes int
	// HasSums reports whether per-chunk CRCs are recorded (checksummed
	// sessions). Without sums a resume trusts the bitmap after a size
	// check only.
	HasSums bool
	Files   []*FileLedger

	// committed is the running sum of per-file Committed bytes, kept by
	// Commit/Invalidate/ApplyWire so the write pool's completion check
	// is O(1) instead of an O(#files) scan per chunk.
	committed int64
	// pending records every mutation since the last AppendSince, in
	// order, so a persist tick can journal just the delta instead of
	// re-serializing the whole document.
	pending []ledgerOp
	// gen identifies the most recent snapshot encoding of this ledger;
	// journal records are only replayed over the snapshot they extend.
	gen uint64
}

// ledgerOp is one recorded ledger mutation: a chunk commit (commit true,
// lo names the chunk, sum its CRC) or a chunk-range invalidation
// ([lo, hi)).
type ledgerOp struct {
	file   uint32
	lo, hi uint32
	sum    uint32
	commit bool
}

// FileLedger is one file's committed-chunk state.
type FileLedger struct {
	Name      string
	Size      int64
	Committed int64
	// Bitmap marks committed chunks, LSB-first; nil until first commit.
	Bitmap []uint64
	// Sums holds per-chunk CRC-32C values, valid where Bitmap is set.
	Sums []uint32
}

// NewLedger creates an empty ledger for the manifest.
func NewLedger(session string, chunkBytes int, m workload.Manifest, withSums bool) *Ledger {
	l := &Ledger{
		SessionID:  session,
		ChunkBytes: chunkBytes,
		HasSums:    withSums,
		Files:      make([]*FileLedger, len(m)),
	}
	for i, f := range m {
		l.Files[i] = &FileLedger{Name: f.Name, Size: f.Size}
	}
	return l
}

// NewSessionID returns a fresh random session identifier, valid for any
// fsim.LedgerStore backend.
func NewSessionID() string {
	var b [8]byte
	if _, err := io.ReadFull(rand.Reader, b[:]); err != nil {
		panic(fmt.Sprintf("transfer: session id entropy: %v", err))
	}
	return "s-" + hex.EncodeToString(b[:])
}

// chunks returns how many chunks tile size bytes.
func (l *Ledger) chunks(size int64) int {
	cb := int64(l.ChunkBytes)
	return int((size + cb - 1) / cb)
}

// chunkLen returns the payload length of chunk idx in a file of the
// given size.
func (l *Ledger) chunkLen(size int64, idx int) int64 {
	cb := int64(l.ChunkBytes)
	n := size - int64(idx)*cb
	if n > cb {
		n = cb
	}
	return n
}

// chunkIndex returns the grid index of the chunk at (fileID, off) and
// whether n bytes there are exactly that chunk: a known file, an aligned
// offset inside it, and the chunk's full length (the file's remainder
// for the tail). Caller holds mu.
func (l *Ledger) chunkIndex(fileID uint32, off int64, n int) (int, bool) {
	if int(fileID) >= len(l.Files) {
		return 0, false
	}
	size := l.Files[fileID].Size
	cb := int64(l.ChunkBytes)
	if off < 0 || off%cb != 0 || off >= size {
		return 0, false
	}
	idx := int(off / cb)
	return idx, int64(n) == l.chunkLen(size, idx)
}

// isChunk reports whether n bytes at (fileID, off) are exactly one chunk
// of the session's grid.
func (l *Ledger) isChunk(fileID uint32, off int64, n int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.chunkIndex(fileID, off, n)
	return ok
}

// ensure sizes f's bitmap and sums lazily.
func (l *Ledger) ensure(f *FileLedger) {
	if f.Bitmap != nil {
		return
	}
	n := l.chunks(f.Size)
	f.Bitmap = make([]uint64, (n+63)/64)
	if l.HasSums {
		f.Sums = make([]uint32, n)
	}
}

func bitSet(bm []uint64, i int) bool { return bm[i/64]&(1<<(i%64)) != 0 }

// Done reports whether the chunk at (fileID, off) is committed.
func (l *Ledger) Done(fileID uint32, off int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if int(fileID) >= len(l.Files) {
		return false
	}
	f := l.Files[fileID]
	if f.Bitmap == nil || off < 0 || off >= f.Size {
		return false
	}
	return bitSet(f.Bitmap, int(off/int64(l.ChunkBytes)))
}

// Commit marks the chunk at (fileID, off) of length n committed with the
// given payload CRC. It reports whether the chunk was newly committed
// (false for duplicates and out-of-range requests), so duplicate frames
// are never double-counted.
func (l *Ledger) Commit(fileID uint32, off int64, n int, sum uint32) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx, ok := l.chunkIndex(fileID, off, n)
	if !ok {
		return false // partial or misaligned write is not a chunk commit
	}
	f := l.Files[fileID]
	l.ensure(f)
	if bitSet(f.Bitmap, idx) {
		return false
	}
	f.Bitmap[idx/64] |= 1 << (idx % 64)
	if l.HasSums {
		f.Sums[idx] = sum
	}
	f.Committed += int64(n)
	l.committed += int64(n)
	l.pending = append(l.pending, ledgerOp{file: fileID, lo: uint32(idx), sum: sum, commit: true})
	return true
}

// Invalidate clears every committed chunk overlapping [off, off+n),
// returning how many chunks were cleared. The cleared ranges will be
// re-planned by the next resume.
func (l *Ledger) Invalidate(fileID uint32, off, n int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if int(fileID) >= len(l.Files) || n <= 0 {
		return 0
	}
	f := l.Files[fileID]
	if f.Bitmap == nil {
		return 0
	}
	cb := int64(l.ChunkBytes)
	lo := int(off / cb)
	hi := l.chunks(min(off+n, f.Size))
	cleared := 0
	for i := max(lo, 0); i < hi; i++ {
		if bitSet(f.Bitmap, i) {
			f.Bitmap[i/64] &^= 1 << (i % 64)
			clen := l.chunkLen(f.Size, i)
			f.Committed -= clen
			l.committed -= clen
			cleared++
		}
	}
	if cleared > 0 {
		l.pending = append(l.pending, ledgerOp{file: fileID, lo: uint32(max(lo, 0)), hi: uint32(hi)})
	}
	return cleared
}

// InvalidateFile clears a whole file's committed state, returning how
// many chunks were cleared.
func (l *Ledger) InvalidateFile(fileID uint32) int {
	if int(fileID) >= len(l.Files) {
		return 0
	}
	return l.Invalidate(fileID, 0, l.Files[fileID].Size)
}

// CommittedBytes returns the committed payload volume across all files.
func (l *Ledger) CommittedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.committed
}

// FileCommitted returns one file's committed payload bytes.
func (l *Ledger) FileCommitted(fileID uint32) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if int(fileID) >= len(l.Files) {
		return 0
	}
	return l.Files[fileID].Committed
}

// FileComplete reports whether every chunk of the file is committed.
func (l *Ledger) FileComplete(fileID uint32) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if int(fileID) >= len(l.Files) {
		return false
	}
	f := l.Files[fileID]
	return f.Committed == f.Size
}

// FileCRC combines the per-chunk sums of a complete file, in order, into
// the whole-file CRC-32C. ok is false when sums are not recorded or the
// file is incomplete. The sums are copied out under the lock and folded
// outside it, so a long fold never stalls concurrent commits.
func (l *Ledger) FileCRC(fileID uint32) (crc uint32, ok bool) {
	l.mu.Lock()
	if !l.HasSums || int(fileID) >= len(l.Files) {
		l.mu.Unlock()
		return 0, false
	}
	f := l.Files[fileID]
	if f.Committed != f.Size {
		l.mu.Unlock()
		return 0, false
	}
	sums := append([]uint32(nil), f.Sums[:l.chunks(f.Size)]...)
	size := f.Size
	l.mu.Unlock()
	return wire.FoldChunkCRCs(sums, int64(l.ChunkBytes), size), true
}

// MatchesManifest reports whether the ledger describes the same dataset
// (names and sizes), the precondition for resuming from it. Chunk
// geometry is the ledger's own: a resumed session adopts the persisted
// ChunkBytes, so a sender config change cannot orphan committed ranges.
func (l *Ledger) MatchesManifest(m workload.Manifest) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.Files) != len(m) {
		return fmt.Errorf("transfer: ledger has %d files, manifest %d", len(l.Files), len(m))
	}
	for i, f := range m {
		if l.Files[i].Name != f.Name || l.Files[i].Size != f.Size {
			return fmt.Errorf("transfer: ledger file %d is %s/%d, manifest %s/%d",
				i, l.Files[i].Name, l.Files[i].Size, f.Name, f.Size)
		}
	}
	return nil
}

// Matches reports whether the ledger describes the same dataset and
// chunk geometry.
func (l *Ledger) Matches(m workload.Manifest, chunkBytes int) error {
	if l.ChunkBytes != chunkBytes {
		return fmt.Errorf("transfer: ledger chunk size %d != session %d", l.ChunkBytes, chunkBytes)
	}
	return l.MatchesManifest(m)
}

// WireStates exports the committed state for the Welcome handshake,
// omitting files with nothing committed.
func (l *Ledger) WireStates() []wire.FileState {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []wire.FileState
	for i, f := range l.Files {
		if f.Committed == 0 {
			continue
		}
		out = append(out, wire.FileState{
			FileID:         uint32(i),
			CommittedBytes: f.Committed,
			Bitmap:         append([]uint64(nil), f.Bitmap...),
		})
	}
	return out
}

// ApplyWire imports advertised committed state into an empty ledger (the
// sender's planning view; sums are unknown on this side).
func (l *Ledger) ApplyWire(states []wire.FileState) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, st := range states {
		if int(st.FileID) >= len(l.Files) {
			continue
		}
		f := l.Files[st.FileID]
		n := l.chunks(f.Size)
		words := (n + 63) / 64
		if len(st.Bitmap) != words {
			continue // geometry mismatch; treat as nothing committed
		}
		f.Bitmap = append([]uint64(nil), st.Bitmap...)
		// Mask tail bits beyond the last chunk, then recount from the
		// bitmap rather than trusting the advertised byte total.
		if rem := n % 64; rem != 0 && words > 0 {
			f.Bitmap[words-1] &= (1 << rem) - 1
		}
		l.committed -= f.Committed
		f.Committed = 0
		for i := 0; i < n; i++ {
			if bitSet(f.Bitmap, i) {
				f.Committed += l.chunkLen(f.Size, i)
			}
		}
		l.committed += f.Committed
	}
}

// CommittedChunks counts committed chunks across all files.
func (l *Ledger) CommittedChunks() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, f := range l.Files {
		for _, w := range f.Bitmap {
			n += int64(bits.OnesCount64(w))
		}
	}
	return n
}

// AppendSince drains the mutations recorded since the last call,
// encoded as journal records ready to append to the session journal
// (persist-on-tick support). It returns nil when nothing changed. The
// records extend the ledger's most recent snapshot; replaying them
// over that snapshot — or over any later one, since re-applying an
// in-order prefix is idempotent — reproduces the live state.
//
// Encoding happens under the lock (a tick's worth of records costs
// microseconds) so the pending slice's capacity can be reused: the
// commit hot path then never re-grows it from nil between ticks.
func (l *Ledger) AppendSince() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pending) == 0 {
		return nil
	}
	buf := make([]byte, 0, journalRecordMax*len(l.pending))
	for _, op := range l.pending {
		buf = appendJournalRecord(buf, op)
	}
	if cap(l.pending) > 1<<16 {
		// A journal replay can momentarily record millions of ops;
		// don't pin that much backing array for the session's lifetime.
		l.pending = nil
	} else {
		l.pending = l.pending[:0]
	}
	return buf
}

// VerifyAgainst re-checks every committed range against the destination
// store and clears what no longer holds: a missing or resized file loses
// its whole ledger entry, and (when sums are recorded) each committed
// chunk is read back and its CRC compared, so a corrupt region
// invalidates just that ledger range. It returns the surviving committed
// byte count and the number of chunk ranges cleared.
func (l *Ledger) VerifyAgainst(store fsim.Store) (kept int64, cleared int) {
	type span struct {
		fileID uint32
		name   string
		size   int64
	}
	l.mu.Lock()
	files := make([]span, len(l.Files))
	for i, f := range l.Files {
		files[i] = span{uint32(i), f.Name, f.Size}
	}
	hasSums := l.HasSums
	l.mu.Unlock()

	st, canStat := store.(fsim.Stater)
	buf := make([]byte, l.ChunkBytes)
	for _, f := range files {
		if l.FileCommitted(f.fileID) == 0 {
			continue
		}
		if canStat {
			size, err := st.Stat(f.name)
			if err != nil || size != f.size {
				cleared += l.InvalidateFile(f.fileID)
				continue
			}
		}
		if !hasSums {
			continue // size check is all we can do
		}
		r, err := store.Open(f.name, f.size)
		if err != nil {
			cleared += l.InvalidateFile(f.fileID)
			continue
		}
		n := l.chunks(f.size)
		for idx := 0; idx < n; idx++ {
			off := int64(idx) * int64(l.ChunkBytes)
			if !l.Done(f.fileID, off) {
				continue
			}
			clen := l.chunkLen(f.size, idx)
			chunk := buf[:clen]
			if _, err := r.ReadAt(chunk, off); err != nil && err != io.EOF {
				cleared += l.Invalidate(f.fileID, off, clen)
				continue
			}
			l.mu.Lock()
			want := l.Files[f.fileID].Sums[idx]
			l.mu.Unlock()
			if wire.PayloadCRC(chunk) != want {
				cleared += l.Invalidate(f.fileID, off, clen)
			}
		}
		r.Close()
	}
	if cleared > 0 {
		metrics.ResumeReplayedAdd(int64(cleared))
	}
	return l.CommittedBytes(), cleared
}
