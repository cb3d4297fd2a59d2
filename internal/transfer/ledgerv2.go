package transfer

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"automdt/internal/fsim"
	"automdt/internal/wire"
)

// The persisted ledger is a binary snapshot plus an append-only journal,
// sized for large sessions (the paper's 1000×1 GB / 4M-chunk scenario):
// a probe tick appends only the commits and invalidations since the last
// tick (Ledger.AppendSince); the snapshot is rewritten only at
// compaction. The two files are paired by a random generation id: a
// journal is replayed only over the snapshot carrying the same
// generation, so a crash anywhere between a compaction's snapshot rename
// and its journal truncate can never resurrect state the snapshot
// already folded in or apply records to the wrong base.
//
// Snapshot layout (integers big-endian, uvarints per encoding/binary):
//
//	0   4   magic 0xAD 'L' 'S' '2'
//	4   1   schema (2)
//	5   8   generation id
//	    -   uvarint session length + session bytes
//	    -   uvarint chunk bytes
//	    -   1 flag byte (bit0: per-chunk CRCs recorded)
//	    -   uvarint file count, then per file:
//	          uvarint name length + name bytes
//	          uvarint file size
//	          uvarint bitmap word count W (0 = nothing committed)
//	          W×8 bitmap words, LSB-first chunk order
//	          popcount(bitmap)×4 packed CRC-32C sums, ascending chunk
//	          index (only when the flag byte records sums and W > 0)
//	end 4   CRC-32C of every preceding byte
//
// Journal layout: a 12-byte header (magic 0xAD 'L' 'J' '2' + the
// paired snapshot's generation id) followed by self-delimiting records,
// each trailed by the CRC-32C of its own bytes:
//
//	commit:     0x01, uvarint file id, uvarint chunk index, 4-byte sum
//	invalidate: 0x02, uvarint file id, uvarint first chunk, uvarint count
//
// A torn or corrupt record fails its CRC and truncates replay at the
// last valid record — later bytes are never trusted.

// ledgerMagicV2 opens a snapshot; the first byte is ≥ 0x80 so no text
// document (or file name) can collide with it.
var ledgerMagicV2 = [4]byte{0xAD, 'L', 'S', '2'}

// journalMagic opens a journal.
var journalMagic = [4]byte{0xAD, 'L', 'J', '2'}

// journalHeaderLen is the journal's fixed header: magic + generation.
const journalHeaderLen = 12

const (
	jKindCommit     = 0x01
	jKindInvalidate = 0x02
)

// journalRecordMax bounds one encoded record: kind byte, up to three
// 5-byte uvarints, and the 4-byte sum and record CRC.
const journalRecordMax = 1 + 3*5 + 4 + 4

// newGen returns a fresh random snapshot generation id.
func newGen() uint64 {
	var b [8]byte
	if _, err := io.ReadFull(rand.Reader, b[:]); err != nil {
		panic(fmt.Sprintf("transfer: ledger generation entropy: %v", err))
	}
	return binary.BigEndian.Uint64(b[:])
}

// EncodeV2 serializes the ledger as a binary snapshot under a
// fresh generation id. Journal records appended after this call (via
// JournalHeader + AppendSince) extend this snapshot; any journal
// carrying an older generation is dead the moment the snapshot lands.
func (l *Ledger) EncodeV2() []byte {
	gen := newGen()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gen = gen

	est := 64 + len(l.SessionID)
	for _, f := range l.Files {
		est += 32 + len(f.Name) + 8*len(f.Bitmap)
		if l.HasSums {
			est += 4 * len(f.Sums)
		}
	}
	buf := make([]byte, 0, est)
	buf = append(buf, ledgerMagicV2[:]...)
	buf = append(buf, 2)
	buf = binary.BigEndian.AppendUint64(buf, gen)
	buf = binary.AppendUvarint(buf, uint64(len(l.SessionID)))
	buf = append(buf, l.SessionID...)
	buf = binary.AppendUvarint(buf, uint64(l.ChunkBytes))
	var flags byte
	if l.HasSums {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(l.Files)))
	for _, f := range l.Files {
		buf = binary.AppendUvarint(buf, uint64(len(f.Name)))
		buf = append(buf, f.Name...)
		buf = binary.AppendUvarint(buf, uint64(f.Size))
		buf = binary.AppendUvarint(buf, uint64(len(f.Bitmap)))
		for _, w := range f.Bitmap {
			buf = binary.BigEndian.AppendUint64(buf, w)
		}
		if l.HasSums && f.Bitmap != nil {
			n := l.chunks(f.Size)
			for i := 0; i < n; i++ {
				if bitSet(f.Bitmap, i) {
					buf = binary.BigEndian.AppendUint32(buf, f.Sums[i])
				}
			}
		}
	}
	return binary.BigEndian.AppendUint32(buf, wire.PayloadCRC(buf))
}

// JournalHeader returns the 12-byte header opening a journal that
// extends the most recent EncodeV2 snapshot of this ledger.
func (l *Ledger) JournalHeader() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	buf := make([]byte, 0, journalHeaderLen)
	buf = append(buf, journalMagic[:]...)
	return binary.BigEndian.AppendUint64(buf, l.gen)
}

// appendJournalRecord encodes one ledger mutation, trailed by the
// CRC-32C of the record's own bytes so a torn append is detectable.
func appendJournalRecord(dst []byte, op ledgerOp) []byte {
	start := len(dst)
	if op.commit {
		dst = append(dst, jKindCommit)
		dst = binary.AppendUvarint(dst, uint64(op.file))
		dst = binary.AppendUvarint(dst, uint64(op.lo))
		dst = binary.BigEndian.AppendUint32(dst, op.sum)
	} else {
		dst = append(dst, jKindInvalidate)
		dst = binary.AppendUvarint(dst, uint64(op.file))
		dst = binary.AppendUvarint(dst, uint64(op.lo))
		dst = binary.AppendUvarint(dst, uint64(op.hi-op.lo))
	}
	return binary.BigEndian.AppendUint32(dst, wire.PayloadCRC(dst[start:]))
}

// cursor is a bounds-checked byte reader for the v2 decoders. Every
// read fails cleanly at the end of input so corrupt or truncated
// documents error instead of panicking.
type cursor struct {
	data []byte
	off  int
	err  error
}

func (c *cursor) fail() {
	if c.err == nil {
		c.err = errors.New("transfer: truncated ledger document")
	}
}

func (c *cursor) bytes(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.data) || c.off+n < c.off {
		c.fail()
		return nil
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b
}

func (c *cursor) byte() byte {
	b := c.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) remaining() int { return len(c.data) - c.off }

// DecodeLedger parses a persisted snapshot, recomputing committed byte
// counts from the bitmaps. Anything that does not open with the snapshot
// magic is refused, and the trailing whole-document CRC is verified
// before any content is trusted.
func DecodeLedger(data []byte) (*Ledger, error) {
	if len(data) < 4+1+8+4 || [4]byte(data[:4]) != ledgerMagicV2 {
		return nil, errors.New("transfer: not a ledger snapshot")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if binary.BigEndian.Uint32(trailer) != wire.PayloadCRC(body) {
		return nil, errors.New("transfer: ledger snapshot CRC mismatch")
	}
	c := &cursor{data: body}
	c.bytes(4) // magic, checked above
	if schema := c.byte(); schema != 2 {
		return nil, fmt.Errorf("transfer: ledger schema %d (want 2)", schema)
	}
	gen := binary.BigEndian.Uint64(c.bytes(8))
	session := string(c.bytes(int(c.uvarint())))
	chunkBytes := c.uvarint()
	if c.err == nil && (chunkBytes == 0 || chunkBytes > 1<<40) {
		return nil, errors.New("transfer: ledger has no chunk size")
	}
	flags := c.byte()
	hasSums := flags&1 != 0
	nFiles := c.uvarint()
	if c.err == nil && nFiles > uint64(c.remaining()) {
		// Each file costs at least one byte; anything claiming more is
		// corrupt, and this bound caps the Files allocation.
		c.fail()
	}
	if c.err != nil {
		return nil, c.err
	}
	l := &Ledger{
		SessionID:  session,
		ChunkBytes: int(chunkBytes),
		HasSums:    hasSums,
		Files:      make([]*FileLedger, 0, nFiles),
		gen:        gen,
	}
	for fi := uint64(0); fi < nFiles; fi++ {
		f := &FileLedger{Name: string(c.bytes(int(c.uvarint())))}
		f.Size = int64(c.uvarint())
		if f.Size < 0 {
			c.fail()
		}
		words := c.uvarint()
		if c.err != nil {
			return nil, c.err
		}
		n := l.chunks(f.Size)
		if words > 0 {
			if words != uint64((n+63)/64) || int(words)*8 > c.remaining() {
				return nil, fmt.Errorf("transfer: ledger file %q has inconsistent geometry", f.Name)
			}
			f.Bitmap = make([]uint64, words)
			raw := c.bytes(int(words) * 8)
			for i := range f.Bitmap {
				f.Bitmap[i] = binary.BigEndian.Uint64(raw[i*8:])
			}
			if rem := n % 64; rem != 0 {
				f.Bitmap[words-1] &= (1 << rem) - 1
			}
			set := 0
			for _, w := range f.Bitmap {
				set += bits.OnesCount64(w)
			}
			if hasSums {
				if set*4 > c.remaining() {
					return nil, fmt.Errorf("transfer: ledger file %q has truncated sums", f.Name)
				}
				f.Sums = make([]uint32, n)
				raw := c.bytes(set * 4)
				j := 0
				for i := 0; i < n; i++ {
					if bitSet(f.Bitmap, i) {
						f.Sums[i] = binary.BigEndian.Uint32(raw[j*4:])
						j++
					}
				}
			}
			for i := 0; i < n; i++ {
				if bitSet(f.Bitmap, i) {
					f.Committed += l.chunkLen(f.Size, i)
				}
			}
		}
		l.Files = append(l.Files, f)
		l.committed += f.Committed
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.remaining() != 0 {
		return nil, errors.New("transfer: trailing bytes after ledger snapshot")
	}
	return l, nil
}

// LoadSessionLedger reads a session's persisted state from the store:
// the ledger snapshot, plus — when the store keeps an
// append-only journal — the journal records folded in. This is the
// read side of the snapshot+journal layout; every consumer (resume,
// inspection tooling, tests) should load through it rather than
// decoding the document alone, which can be a whole compaction interval
// stale.
func LoadSessionLedger(store fsim.LedgerStore, session string) (*Ledger, error) {
	data, err := store.LoadLedger(session)
	if err != nil {
		return nil, err
	}
	l, err := DecodeLedger(data)
	if err != nil {
		return nil, err
	}
	if la, ok := store.(fsim.LedgerAppender); ok {
		if j, jerr := la.LoadJournal(session); jerr == nil {
			l.ReplayJournal(j)
		}
	}
	return l, nil
}

// ReplayJournal applies journal records to the ledger, which must be
// the decoded snapshot the journal extends: a journal carrying a
// different generation id (a compaction's leftovers, or no journal at
// all) is ignored entirely. Replay stops at the first torn, truncated,
// or corrupt record — everything after the last valid record is
// discarded, never guessed at — and re-applying records the snapshot
// already folded in is harmless (a duplicate commit or invalidation is
// a no-op). It returns how many records were applied.
func (l *Ledger) ReplayJournal(journal []byte) int {
	if len(journal) < journalHeaderLen || [4]byte(journal[0:4]) != journalMagic {
		return 0
	}
	l.mu.Lock()
	gen := l.gen
	l.mu.Unlock()
	if binary.BigEndian.Uint64(journal[4:12]) != gen {
		return 0
	}
	c := &cursor{data: journal, off: journalHeaderLen}
	cb := int64(l.ChunkBytes)
	applied := 0
	for c.remaining() > 0 {
		start := c.off
		kind := c.byte()
		file := c.uvarint()
		var lo, count uint64
		var sum uint32
		switch kind {
		case jKindCommit:
			lo = c.uvarint()
			raw := c.bytes(4)
			if c.err != nil {
				return applied
			}
			sum = binary.BigEndian.Uint32(raw)
		case jKindInvalidate:
			lo = c.uvarint()
			count = c.uvarint()
		default:
			return applied
		}
		crcRaw := c.bytes(4)
		if c.err != nil {
			return applied
		}
		if binary.BigEndian.Uint32(crcRaw) != wire.PayloadCRC(journal[start:c.off-4]) {
			return applied
		}
		if file > 1<<31 || lo > 1<<31 || count > 1<<31 {
			return applied // a forged record that slipped past its CRC
		}
		switch kind {
		case jKindCommit:
			off := int64(lo) * cb
			if int(file) < len(l.Files) && off < l.Files[file].Size {
				l.Commit(uint32(file), off, int(l.chunkLen(l.Files[file].Size, int(lo))), sum)
			}
		case jKindInvalidate:
			l.Invalidate(uint32(file), int64(lo)*cb, int64(count)*cb)
		}
		applied++
	}
	return applied
}
