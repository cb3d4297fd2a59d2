package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// Control message tags: the first byte of every control message. They
// lie in [0x80, 0xF8) on purpose: a gob stream — the control channel of
// protocol 4 and earlier — opens with a message length that is either
// below 0x80 or a negated byte count of at least 0xF8, so a v4 peer's
// first byte is never a tag and its stream fails there.
const (
	tagHello       byte = 0xC1
	tagWelcome     byte = 0xC2
	tagSetWriters  byte = 0xC3
	tagFileSum     byte = 0xC4
	tagStatus      byte = 0xC5
	tagLedgerPull  byte = 0xC6
	tagLedgerState byte = 0xC7
)

// IsControlTag reports whether b is a control message tag. An endpoint
// takes a connection whose first byte is one for a control connection.
func IsControlTag(b byte) bool { return b >= tagHello && b <= tagLedgerState }

// MaxControlBytes bounds the body of one control message (64 MiB). The
// largest message is a Hello: the endpoint caps its manifest at 2²⁰
// files, and 64 MiB leaves each of them about 60 bytes of name.
const MaxControlBytes = 64 << 20

// recvGrowStep is the most a control body buffer grows ahead of the
// bytes that have arrived: the first read of a body allocates at most
// this much, and each later growth at most doubles what arrived. A
// header announcing a huge body therefore pins no memory until the body
// really comes. Buffers up to this size are kept for the next message.
const recvGrowStep = 64 << 10

// lenBytes is the longest uvarint body length: that of MaxControlBytes.
const lenBytes = 4

// Conn is a control connection: each message is a tag byte, a uvarint
// body length, and the body's explicit fields (docs/PROTOCOL.md gives
// the layout of every message). Send may be called from several
// goroutines; Recv from one at a time.
type Conn struct {
	rw io.ReadWriteCloser
	br *bufio.Reader

	mu  sync.Mutex // serializes Send and guards out
	out []byte     // Send's encode buffer, reused

	body []byte // Recv's body buffer, reused
}

// NewConn wraps rw as a control channel.
func NewConn(rw io.ReadWriteCloser) *Conn {
	return &Conn{rw: rw, br: bufio.NewReader(rw)}
}

// Send encodes one control message and writes it with a single Write.
func (c *Conn) Send(m Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	out, err := appendMessage(c.out[:0], m)
	if err != nil {
		return err
	}
	_, err = c.rw.Write(out)
	if cap(out) <= recvGrowStep {
		c.out = out
	} else {
		c.out = nil // a one-off large Hello does not stay pinned
	}
	return err
}

// Recv reads the next control message. A stream that ends cleanly
// between messages returns io.EOF; one that ends inside a message
// returns io.ErrUnexpectedEOF. An unknown tag, a length above
// MaxControlBytes, or a body that does not decode exactly is an error
// before anything is allocated for it.
func (c *Conn) Recv() (Message, error) {
	tag, err := c.br.ReadByte()
	if err != nil {
		return Message{}, err
	}
	if !IsControlTag(tag) {
		return Message{}, fmt.Errorf("wire: unknown control message tag %#x", tag)
	}
	n, err := c.readLength()
	if err != nil {
		return Message{}, err
	}
	body, err := c.readBody(n)
	if err != nil {
		return Message{}, err
	}
	m, err := decodeMessage(tag, body)
	if cap(c.body) > recvGrowStep {
		c.body = nil
	}
	return m, err
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.rw.Close() }

// readLength reads a message's canonical uvarint body length.
func (c *Conn) readLength() (int, error) {
	var n uint64
	for i := 0; ; i++ {
		if i == lenBytes {
			return 0, fmt.Errorf("wire: control message length above %d bytes", MaxControlBytes)
		}
		b, err := c.br.ReadByte()
		if err != nil {
			return 0, unexpected(err)
		}
		if i > 0 && b == 0 {
			return 0, errors.New("wire: overlong control message length")
		}
		n |= uint64(b&0x7f) << (7 * i)
		if n > MaxControlBytes {
			return 0, fmt.Errorf("wire: control message length above %d bytes", MaxControlBytes)
		}
		if b < 0x80 {
			return int(n), nil
		}
	}
}

// readBody reads an n-byte body into c.body, growing it only as bytes
// arrive (see recvGrowStep).
func (c *Conn) readBody(n int) ([]byte, error) {
	buf := c.body[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), len(buf)+min(n-len(buf), max(len(buf), recvGrowStep)))
			copy(grown, buf)
			buf = grown
		}
		k, err := io.ReadFull(c.br, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+k]
		if err != nil {
			c.body = nil
			return nil, unexpected(err)
		}
	}
	c.body = buf
	return buf, nil
}

// unexpected turns a clean EOF inside a message into io.ErrUnexpectedEOF.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// appendMessage appends m's encoding — tag, uvarint body length, body —
// to dst. m must carry exactly one message.
func appendMessage(dst []byte, m Message) ([]byte, error) {
	// The tags run 0xC1..0xC7 in Message's field order.
	tag, n := byte(0), 0
	for i, set := range [...]bool{m.Hello != nil, m.Welcome != nil, m.SetWriters != nil,
		m.FileSum != nil, m.Status != nil, m.LedgerPull != nil, m.LedgerState != nil} {
		if set {
			tag, n = tagHello+byte(i), n+1
		}
	}
	if n != 1 {
		return dst, fmt.Errorf("wire: a control message carries exactly one message, this one %d", n)
	}

	// Reserve the longest length a legal body can need, encode the body,
	// then close the gap behind the real length.
	start := len(dst)
	dst = append(dst, tag, 0, 0, 0, 0)
	bodyStart := len(dst)
	switch tag {
	case tagHello:
		h := m.Hello
		dst = binary.AppendVarint(dst, int64(h.ProtoVersion))
		dst = appendString(dst, h.SessionID)
		dst = binary.AppendVarint(dst, int64(h.ChunkBytes))
		dst = binary.AppendVarint(dst, int64(h.InitialWriters))
		dst = binary.AppendVarint(dst, h.ReceiverBufBytes)
		dst = binary.AppendUvarint(dst, uint64(len(h.Files)))
		for _, f := range h.Files {
			dst = appendString(dst, f.Name)
			dst = binary.AppendVarint(dst, f.Size)
		}
	case tagWelcome:
		w := m.Welcome
		dst = binary.AppendVarint(dst, int64(w.ProtoVersion))
		dst = appendString(dst, w.SessionID)
		dst = binary.AppendVarint(dst, int64(w.ChunkBytes))
		dst = appendString(dst, w.DataToken)
		dst = appendLedger(dst, w.Ledger)
	case tagSetWriters:
		dst = binary.AppendVarint(dst, int64(m.SetWriters.N))
	case tagFileSum:
		dst = binary.AppendUvarint(dst, uint64(m.FileSum.FileID))
		dst = binary.LittleEndian.AppendUint32(dst, m.FileSum.CRC)
	case tagStatus:
		s := m.Status
		dst = binary.AppendVarint(dst, s.BufFree)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.WriteMbps))
		dst = binary.AppendVarint(dst, int64(s.Writers))
		dst = appendBool(dst, s.Done)
		dst = binary.AppendVarint(dst, s.CommittedBytes)
		dst = appendString(dst, s.Error)
	case tagLedgerPull:
		dst = binary.AppendUvarint(dst, m.LedgerPull.Seq)
	case tagLedgerState:
		dst = binary.AppendUvarint(dst, m.LedgerState.Seq)
		dst = appendLedger(dst, m.LedgerState.Ledger)
	}
	n = len(dst) - bodyStart
	if n > MaxControlBytes {
		return dst[:start], fmt.Errorf("wire: control message body %d bytes exceeds limit %d", n, MaxControlBytes)
	}
	var hdr [lenBytes]byte
	h := len(binary.AppendUvarint(hdr[:0], uint64(n)))
	copy(dst[start+1+h:], dst[bodyStart:])
	copy(dst[start+1:], hdr[:h])
	return dst[:start+1+h+n], nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendLedger(dst []byte, ledger []FileState) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ledger)))
	for _, fs := range ledger {
		dst = binary.AppendUvarint(dst, uint64(fs.FileID))
		dst = binary.AppendVarint(dst, fs.CommittedBytes)
		dst = binary.AppendUvarint(dst, uint64(len(fs.Bitmap)))
		for _, w := range fs.Bitmap {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
	}
	return dst
}

// decodeMessage decodes the body of a control message with the given
// tag. The body must be exactly one message: a truncated field, a count
// larger than the bytes left, a non-canonical value, or trailing bytes
// fail it. A Hello or Welcome of another generation is the exception:
// its version is its first field, the rest follows that generation's
// layout, and the version alone decides the reply, so only the version
// is decoded.
func decodeMessage(tag byte, body []byte) (Message, error) {
	c := NewCursor(body)
	var m Message
	switch tag {
	case tagHello:
		h := &Hello{ProtoVersion: c.Int()}
		if c.Err() == nil && h.ProtoVersion != ProtoVersion {
			return Message{Hello: h}, nil
		}
		h.SessionID = c.String()
		h.ChunkBytes = c.Int()
		h.InitialWriters = c.Int()
		h.ReceiverBufBytes = c.Varint()
		if n := c.Count(2); n > 0 { // a name length and a size
			h.Files = make([]FileInfo, n)
			for i := range h.Files {
				h.Files[i] = FileInfo{Name: c.String(), Size: c.Varint()}
			}
		}
		m.Hello = h
	case tagWelcome:
		w := &Welcome{ProtoVersion: c.Int()}
		if c.Err() == nil && w.ProtoVersion != ProtoVersion {
			return Message{Welcome: w}, nil
		}
		w.SessionID = c.String()
		w.ChunkBytes = c.Int()
		w.DataToken = c.String()
		w.Ledger = decodeLedger(&c)
		m.Welcome = w
	case tagSetWriters:
		m.SetWriters = &SetWriters{N: c.Int()}
	case tagFileSum:
		m.FileSum = &FileSum{FileID: c.Uint32(), CRC: c.Fixed32()}
	case tagStatus:
		m.Status = &Status{
			BufFree:        c.Varint(),
			WriteMbps:      math.Float64frombits(c.Fixed64()),
			Writers:        c.Int(),
			Done:           c.Bool(),
			CommittedBytes: c.Varint(),
			Error:          c.String(),
		}
	case tagLedgerPull:
		m.LedgerPull = &LedgerPull{Seq: c.Uvarint()}
	case tagLedgerState:
		ls := &LedgerState{Seq: c.Uvarint()}
		ls.Ledger = decodeLedger(&c)
		m.LedgerState = ls
	default:
		return Message{}, fmt.Errorf("wire: unknown control message tag %#x", tag)
	}
	if c.Err() == nil && c.Remaining() != 0 {
		c.Fail(fmt.Errorf("wire: %d trailing bytes", c.Remaining()))
	}
	if err := c.Err(); err != nil {
		return Message{}, fmt.Errorf("%w in control message %#x", err, tag)
	}
	return m, nil
}

func decodeLedger(c *Cursor) []FileState {
	n := c.Count(3) // a file id, a byte count and a word count
	if n == 0 {
		return nil
	}
	ledger := make([]FileState, n)
	for i := range ledger {
		fs := &ledger[i]
		fs.FileID = c.Uint32()
		fs.CommittedBytes = c.Varint()
		if words := c.Count(8); words > 0 {
			raw := c.Bytes(8 * words)
			fs.Bitmap = make([]uint64, words)
			for j := range fs.Bitmap {
				fs.Bitmap[j] = binary.LittleEndian.Uint64(raw[8*j:])
			}
		}
	}
	return ledger
}
