package wire

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync/atomic"
)

// ProtoVersion is the one control-channel protocol generation: Hello →
// Welcome (chunk ledger + DataToken) → preambled data connections →
// LedgerPull on connection loss → one Status{Done} or Status{Error}.
// A connection outlives a session that ends with Done: the next Hello on
// the control connection starts the next session, and a preamble at a
// frame boundary moves a data connection to it. An endpoint has one
// address: a connection's first byte says whether it carries data or
// control. Both ends carry the generation in the handshake and refuse
// any other value; nothing negotiates down. docs/PROTOCOL.md specifies
// every message.
const ProtoVersion = 8

// DataTokenBytes is the decoded length of a session's data-routing token
// (Welcome.DataToken is its hex encoding).
const DataTokenBytes = 16

// PreambleBytes is the encoded size of the data-connection preamble:
// PreambleMagic followed by the decoded DataToken.
const PreambleBytes = 4 + DataTokenBytes

// PreambleMagic opens every data connection. The first byte is ≥ 0x80
// on purpose: read as a big-endian frame header it would name file id
// ≥ 0xAD000000 (~2.9 billion files), which no manifest can reach, so a
// bare frame stream can never be mistaken for a preamble, and a preamble
// at a frame boundary is told from a frame header by its first 4 bytes.
// 0xAD is no control message tag either, so an endpoint tells a data
// connection from a control one by its first byte.
var PreambleMagic = [4]byte{0xAD, 'M', 'T', '2'}

// ErrPreamble is what FrameReader.Read returns when a data preamble
// stands where a frame header would: the sender has moved the connection
// to another session. FrameReader.Token returns the token it carries.
var ErrPreamble = errors.New("wire: data preamble at a frame boundary")

// NewDataToken returns a fresh random session data token, hex-encoded as
// carried in a Welcome.
func NewDataToken() string {
	var b [DataTokenBytes]byte
	if _, err := io.ReadFull(rand.Reader, b[:]); err != nil {
		panic(fmt.Sprintf("wire: data token entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// WriteDataPreamble writes the data-connection preamble: the magic plus
// the decoded token. Senders write it before a session's first frame on
// a data connection: on a fresh connection, or at a frame boundary of one
// an earlier session left open.
func WriteDataPreamble(w io.Writer, token string) error {
	raw, err := hex.DecodeString(token)
	if err != nil || len(raw) != DataTokenBytes {
		return fmt.Errorf("wire: malformed data token %q", token)
	}
	var buf [PreambleBytes]byte
	copy(buf[:4], PreambleMagic[:])
	copy(buf[4:], raw)
	_, err = w.Write(buf[:])
	return err
}

// MaxChunk bounds the payload length of a single frame (16 MiB), guarding
// decoders against corrupt headers.
const MaxChunk = 16 << 20

// FrameHeaderSize is the encoded size of a frame header: file id, offset,
// length, and a CRC-32C of the payload.
const FrameHeaderSize = 4 + 8 + 4 + 4

// castagnoli is the CRC-32C table (the polynomial used by iSCSI and ext4,
// with hardware support on modern CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame is one chunk of file data on a data connection.
type Frame struct {
	FileID uint32
	Offset int64
	Data   []byte
	// Checksum is ignored: every frame carries its payload CRC-32C.
	//
	// Deprecated: kept only until benchmark/layers.go stops setting it.
	Checksum bool
	// Sum is the payload CRC-32C. On write it is used instead of a fresh
	// computation when SumKnown is set (the read stage already hashed the
	// chunk for the session ledger); a read fills it with the verified
	// payload CRC.
	Sum uint32
	// SumKnown reports whether Sum holds a valid payload CRC.
	SumKnown bool
}

// EncodeHeader encodes f's header, payload CRC included, into hdr.
func EncodeHeader(hdr *[FrameHeaderSize]byte, f Frame) error {
	if len(f.Data) > MaxChunk {
		return fmt.Errorf("wire: frame payload %d exceeds limit %d", len(f.Data), MaxChunk)
	}
	binary.BigEndian.PutUint32(hdr[0:4], f.FileID)
	binary.BigEndian.PutUint64(hdr[4:12], uint64(f.Offset))
	binary.BigEndian.PutUint32(hdr[12:16], uint32(len(f.Data)))
	sum := f.Sum
	if !f.SumKnown {
		sum = crc32.Checksum(f.Data, castagnoli)
	}
	binary.BigEndian.PutUint32(hdr[16:20], sum)
	return nil
}

// ioOps counts data-plane I/O operations: every frame header and
// payload read, frame write (one per vectored batch) and store
// ReadAt/WriteAt on the hot path bumps it by one. It is a strace-free
// would-be-syscall counter — self-instrumented at the call sites the
// engine owns, so it is exact, cheap, and works under `go test`. A
// frame read counts even when the reader below serves it from a
// read-ahead buffer without a syscall.
var ioOps atomic.Int64

// CountIOOps records n data-plane I/O operations.
func CountIOOps(n int64) { ioOps.Add(n) }

// IOOps returns the process-lifetime data-plane operation count.
// Benchmarks snapshot it before and after a scenario and report the
// delta per op.
func IOOps() int64 { return ioOps.Load() }

// FrameWriter writes frames with zero per-frame allocations: the header
// scratch and the vectored-write buffer list persist across calls, and
// header+payload go out in a single writev when the destination is a
// *net.TCPConn (any io.Writer implementing net.buffersWriter). Not safe
// for concurrent use; each network worker owns one.
type FrameWriter struct {
	hdr [FrameHeaderSize]byte
	// arr backs the net.Buffers view. WriteTo consumes the vecs slice
	// header as it drains, so vecs is re-derived from arr on every call
	// instead of appended to (append on the consumed slice would
	// reallocate per frame).
	arr  [2][]byte
	vecs net.Buffers
	// Batch scratch: one persistent header block per frame slot and the
	// iovec list backing a multi-frame writev (WriteBatch).
	hdrs []*[FrameHeaderSize]byte
	barr [][]byte
}

// Write writes one frame to w.
func (fw *FrameWriter) Write(w io.Writer, f Frame) error {
	if err := EncodeHeader(&fw.hdr, f); err != nil {
		return err
	}
	CountIOOps(1)
	if len(f.Data) == 0 {
		_, err := w.Write(fw.hdr[:])
		return err
	}
	fw.arr[0], fw.arr[1] = fw.hdr[:], f.Data
	fw.vecs = net.Buffers(fw.arr[:])
	_, err := fw.vecs.WriteTo(w)
	fw.arr[1] = nil // drop the payload reference; the arena owns it
	return err
}

// WriteBatch writes a batch of frames to w as one vectored write: all
// headers are encoded into persistent per-slot scratch and the
// header/payload iovecs go out in a single writev when w is a
// *net.TCPConn. One batch costs one data-plane operation regardless of
// frame count.
func (fw *FrameWriter) WriteBatch(w io.Writer, frames []Frame) error {
	if len(frames) == 0 {
		return nil
	}
	if len(frames) == 1 {
		return fw.Write(w, frames[0])
	}
	for len(fw.hdrs) < len(frames) {
		fw.hdrs = append(fw.hdrs, new([FrameHeaderSize]byte))
	}
	fw.barr = fw.barr[:0]
	for i := range frames {
		if err := EncodeHeader(fw.hdrs[i], frames[i]); err != nil {
			return err
		}
		fw.barr = append(fw.barr, fw.hdrs[i][:])
		if len(frames[i].Data) > 0 {
			fw.barr = append(fw.barr, frames[i].Data)
		}
	}
	fw.vecs = net.Buffers(fw.barr)
	CountIOOps(1)
	_, err := fw.vecs.WriteTo(w)
	for i := range fw.barr {
		fw.barr[i] = nil // drop payload references; the arena owns them
	}
	fw.barr = fw.barr[:0]
	return err
}

// FrameReader reads frames with a persistent header scratch (the local
// header array in a plain function escapes into the io.ReadFull call and
// costs one heap allocation per frame). Not safe for concurrent use;
// each connection reader owns one.
type FrameReader struct {
	hdr [FrameHeaderSize]byte
}

// Token returns the decoded data token of the preamble the last Read
// stopped at with ErrPreamble. A preamble is exactly as long as a frame
// header, so the header read holds all of it.
func (fr *FrameReader) Token() [DataTokenBytes]byte {
	return [DataTokenBytes]byte(fr.hdr[len(PreambleMagic):])
}

// Read reads one frame from r into a buffer obtained from alloc (which
// must return a slice of at least the requested length). It returns
// io.EOF only on a connection closed at a frame boundary, and ErrPreamble
// when a data preamble stands in place of the frame header. Every frame's
// payload CRC is verified; a mismatch is a hard error.
func (fr *FrameReader) Read(r io.Reader, alloc func(n int) []byte) (Frame, error) {
	hdr := &fr.hdr
	CountIOOps(1)
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("wire: read frame header: %w", err)
	}
	if [4]byte(hdr[:4]) == PreambleMagic {
		return Frame{}, ErrPreamble
	}
	f := Frame{
		FileID: binary.BigEndian.Uint32(hdr[0:4]),
		Offset: int64(binary.BigEndian.Uint64(hdr[4:12])),
	}
	n := binary.BigEndian.Uint32(hdr[12:16])
	want := binary.BigEndian.Uint32(hdr[16:20])
	if n > MaxChunk {
		return Frame{}, fmt.Errorf("wire: frame length %d exceeds limit %d", n, MaxChunk)
	}
	if n > 0 {
		f.Data = alloc(int(n))[:n]
		CountIOOps(1)
		if _, err := io.ReadFull(r, f.Data); err != nil {
			return Frame{}, fmt.Errorf("wire: read frame payload: %w", err)
		}
	}
	if got := crc32.Checksum(f.Data, castagnoli); got != want {
		return Frame{}, fmt.Errorf("wire: checksum mismatch on file %d offset %d: %#x != %#x",
			f.FileID, f.Offset, got, want)
	}
	f.Sum, f.SumKnown = want, true
	return f, nil
}

// FileInfo describes one manifest entry on the control channel.
type FileInfo struct {
	Name string
	Size int64
}

// Hello is the sender's opening message on the control channel.
type Hello struct {
	Files          []FileInfo
	ChunkBytes     int
	InitialWriters int
	// ReceiverBufBytes requests a staging capacity. The receiver grants
	// at most its own; zero keeps the receiver default.
	ReceiverBufBytes int64
	// ProtoVersion is the sender's protocol generation; the receiver
	// refuses a Hello whose value is not its own ProtoVersion.
	ProtoVersion int
	// SessionID names the resumable session to create or resume. Empty
	// means a one-shot transfer: the receiver neither persists nor
	// consults a ledger.
	SessionID string
}

// FileState is one file's ledger entry advertised in a Welcome: which
// chunks the receiver has already committed to the destination store.
type FileState struct {
	FileID uint32
	// CommittedBytes is the payload volume already safe at the receiver.
	CommittedBytes int64
	// Bitmap marks committed chunks, LSB-first (chunk i is bit i%64 of
	// word i/64). Nil when nothing is committed.
	Bitmap []uint64
}

// Welcome is the receiver's reply to an admitted Hello: the
// authoritative session identity, the chunk ledger from which the sender
// plans only the missing ranges, and the data-routing token.
type Welcome struct {
	// ProtoVersion is the receiver's protocol generation; the sender
	// fails on any value other than its own ProtoVersion.
	ProtoVersion int
	SessionID    string
	// ChunkBytes is the session's chunk size; a resumed ledger pins it.
	ChunkBytes int
	// Ledger lists per-file committed state. Empty for fresh sessions.
	Ledger []FileState
	// DataToken is the hex-encoded routing token the sender must echo in
	// every data-connection preamble so the endpoint can demultiplex
	// concurrent sessions. Never empty.
	DataToken string
}

// FileSum carries the sender's end-to-end CRC-32C of one fully read
// file, combined from per-chunk sums. The receiver verifies it against
// its own combined ledger sums when the file commits. A session owes one
// for every non-empty file the Welcome's ledger shows no committed chunk
// of, and completes only once each is verified.
type FileSum struct {
	FileID uint32
	CRC    uint32
}

// SetWriters commands the receiver to resize its write pool (the
// production-phase concurrency reassignment of §IV-F).
type SetWriters struct {
	N int
}

// LedgerPull asks the receiver for its current chunk ledger
// mid-transfer. A sender that loses one of its striped data
// connections pulls the committed state and re-sends only the lost
// chunks. Seq matches the request to its LedgerState reply.
type LedgerPull struct {
	Seq uint64
}

// LedgerState is the receiver's reply to a LedgerPull: the same per-file
// committed-chunk states a Welcome advertises, but taken mid-transfer.
type LedgerState struct {
	Seq    uint64
	Ledger []FileState
}

// Status is the receiver's periodic report: free staging space and write
// throughput — the sender-side agent's view of the far end. Done or
// Error is the session's verdict and the receiver's last message.
type Status struct {
	BufFree   int64
	WriteMbps float64
	Writers   int
	Done      bool
	// CommittedBytes is the ledger-committed payload volume, including
	// ranges inherited from previous attempts of a resumed session —
	// the per-job resume progress the daemon exposes.
	CommittedBytes int64
	// Error carries a fatal receiver-side failure description.
	Error string
}

// Message is the control-channel envelope; exactly one field is non-nil.
type Message struct {
	Hello       *Hello
	Welcome     *Welcome
	SetWriters  *SetWriters
	FileSum     *FileSum
	Status      *Status
	LedgerPull  *LedgerPull
	LedgerState *LedgerState
}
