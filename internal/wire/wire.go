package wire

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// ProtoVersion is the one control-channel protocol generation: Hello →
// Welcome (chunk ledger + DataToken) → preambled data connections →
// LedgerPull on connection loss → one Status{Done} or Status{Error}.
// Both ends carry it in the handshake and refuse any other value;
// nothing negotiates down. docs/PROTOCOL.md specifies every message.
const ProtoVersion = 4

// DataTokenBytes is the decoded length of a session's data-routing token
// (Welcome.DataToken is its hex encoding).
const DataTokenBytes = 16

// PreambleBytes is the encoded size of the data-connection preamble:
// PreambleMagic followed by the decoded DataToken.
const PreambleBytes = 4 + DataTokenBytes

// PreambleMagic opens every data connection. The first byte is ≥ 0x80
// on purpose: read as a big-endian frame header it would name file id
// ≥ 0xAD000000 (~2.9 billion files), which no manifest can reach, so a
// bare frame stream can never be mistaken for a preamble.
var PreambleMagic = [4]byte{0xAD, 'M', 'T', '2'}

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
// the decoded token. Senders call it once per data
// connection, before the first frame.
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

// EndStream is the FileID value marking the end of a data connection.
const EndStream = ^uint32(0)

// MaxChunk bounds the payload length of a single frame (16 MiB), guarding
// decoders against corrupt headers.
const MaxChunk = 16 << 20

// FrameHeaderSize is the encoded size of a frame header: file id, offset,
// length, and a CRC-32C of the payload.
const FrameHeaderSize = 4 + 8 + 4 + 4

// lengthChecksummed flags a length field whose frame carries a payload
// checksum. The bit keeps checksummed and plain senders wire-compatible.
const lengthChecksummed = uint32(1 << 31)

// castagnoli is the CRC-32C table (the polynomial used by iSCSI and ext4,
// with hardware support on modern CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame is one chunk of file data on a data connection.
type Frame struct {
	FileID uint32
	Offset int64
	Data   []byte
	// Checksum, when true on write, adds a CRC-32C over the payload that
	// the receiver verifies (end-to-end integrity, as Globus offers).
	Checksum bool
	// Sum is the payload CRC-32C. On write it is used instead of a fresh
	// computation when SumKnown is set (the read stage already hashed the
	// chunk for the session ledger); on a verified checksummed read it is
	// filled with the payload CRC so the commit path can reuse it.
	Sum uint32
	// SumKnown reports whether Sum holds a valid payload CRC.
	SumKnown bool
}

// EncodeHeader encodes f's header (including the payload CRC when
// f.Checksum is set) into hdr.
func EncodeHeader(hdr *[FrameHeaderSize]byte, f Frame) error {
	if len(f.Data) > MaxChunk {
		return fmt.Errorf("wire: frame payload %d exceeds limit %d", len(f.Data), MaxChunk)
	}
	binary.BigEndian.PutUint32(hdr[0:4], f.FileID)
	binary.BigEndian.PutUint64(hdr[4:12], uint64(f.Offset))
	length := uint32(len(f.Data))
	if f.Checksum {
		length |= lengthChecksummed
		sum := f.Sum
		if !f.SumKnown {
			sum = crc32.Checksum(f.Data, castagnoli)
		}
		binary.BigEndian.PutUint32(hdr[16:20], sum)
	} else {
		binary.BigEndian.PutUint32(hdr[16:20], 0)
	}
	binary.BigEndian.PutUint32(hdr[12:16], length)
	return nil
}

// ioOps counts data-plane I/O operations: every socket read, frame
// write (one per vectored batch) and store ReadAt/WriteAt on the hot
// path bumps it by one. It is a strace-free would-be-syscall counter —
// self-instrumented at the call sites the engine owns, so it is exact,
// cheap, and works under `go test`.
var ioOps atomic.Int64

// CountIOOps records n data-plane I/O operations.
func CountIOOps(n int64) { ioOps.Add(n) }

// IOOps returns the process-lifetime data-plane operation count.
// Benchmarks snapshot it before and after a scenario and report the
// delta per op.
func IOOps() int64 { return ioOps.Load() }

// frameWriterPool and frameReaderPool back the one-shot WriteFrame and
// ReadFrame helpers so their header scratch is reused instead of
// escaping to the heap on every call (control paths, recovery resends,
// and tests all go through the one-shot forms).
var frameWriterPool = sync.Pool{New: func() any { return new(FrameWriter) }}

var frameReaderPool = sync.Pool{New: func() any { return new(FrameReader) }}

// WriteFrame writes one frame to w. For the hot path prefer a FrameWriter,
// which reuses its scratch and issues vectored header+payload writes; the
// one-shot form borrows a pooled writer so it allocates nothing either.
func WriteFrame(w io.Writer, f Frame) error {
	fw := frameWriterPool.Get().(*FrameWriter)
	err := fw.Write(w, f)
	frameWriterPool.Put(fw)
	return err
}

// WriteEnd writes the end-of-stream marker to w.
func WriteEnd(w io.Writer) error {
	return WriteFrame(w, Frame{FileID: EndStream})
}

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

// WriteEnd writes the end-of-stream marker to w.
func (fw *FrameWriter) WriteEnd(w io.Writer) error {
	return fw.Write(w, Frame{FileID: EndStream})
}

// ReadFrame reads one frame from r into a buffer obtained from alloc
// (which must return a slice of at least the requested length). It
// returns io.EOF (wrapped) only on a clean end-of-stream marker or a
// closed connection at a frame boundary. Frames written with Checksum
// set are verified; mismatches are hard errors. For the hot path prefer
// a FrameReader, whose header scratch persists across calls; the
// one-shot form borrows a pooled reader so it allocates nothing either.
func ReadFrame(r io.Reader, alloc func(n int) []byte) (Frame, error) {
	fr := frameReaderPool.Get().(*FrameReader)
	f, err := fr.Read(r, alloc)
	frameReaderPool.Put(fr)
	return f, err
}

// FrameReader reads frames with a persistent header scratch (the local
// header array in a plain function escapes into the io.ReadFull call and
// costs one heap allocation per frame). Not safe for concurrent use;
// each connection reader owns one.
type FrameReader struct {
	hdr [FrameHeaderSize]byte
}

// Read reads one frame from r; see ReadFrame.
func (fr *FrameReader) Read(r io.Reader, alloc func(n int) []byte) (Frame, error) {
	hdr := &fr.hdr
	CountIOOps(1)
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("wire: read frame header: %w", err)
	}
	f := Frame{
		FileID: binary.BigEndian.Uint32(hdr[0:4]),
		Offset: int64(binary.BigEndian.Uint64(hdr[4:12])),
	}
	length := binary.BigEndian.Uint32(hdr[12:16])
	if f.FileID == EndStream {
		return f, io.EOF
	}
	f.Checksum = length&lengthChecksummed != 0
	n := length &^ lengthChecksummed
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
	if f.Checksum {
		if got := crc32.Checksum(f.Data, castagnoli); got != want {
			return Frame{}, fmt.Errorf("wire: checksum mismatch on file %d offset %d: %#x != %#x",
				f.FileID, f.Offset, got, want)
		}
		f.Sum, f.SumKnown = want, true
	}
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
	// Checksums announces that data frames carry payload CRCs and that
	// the session records per-chunk sums in its ledger for end-to-end
	// file verification.
	Checksums bool
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
// its own combined ledger sums when the file commits. A checksummed
// session owes one for every non-empty file the Welcome's ledger shows
// no committed chunk of, and completes only once each is verified.
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

// Conn wraps a control connection with gob encoding in both directions.
type Conn struct {
	enc *gob.Encoder
	dec *gob.Decoder
	c   io.Closer
}

// NewConn wraps rw as a control channel.
func NewConn(rw io.ReadWriteCloser) *Conn {
	return &Conn{enc: gob.NewEncoder(rw), dec: gob.NewDecoder(rw), c: rw}
}

// Send writes one control message.
func (c *Conn) Send(m Message) error { return c.enc.Encode(&m) }

// Recv reads the next control message.
func (c *Conn) Recv() (Message, error) {
	var m Message
	err := c.dec.Decode(&m)
	return m, err
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }
