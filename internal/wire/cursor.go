package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrMalformed is the error a Cursor reports for input that ends early,
// names a count larger than the bytes left, or encodes a value in any
// form but its one canonical form.
var ErrMalformed = errors.New("wire: truncated or malformed encoding")

// Cursor is a bounds-checked reader over one encoded document. Both of
// the repository's binary formats decode through it: the control
// messages here and the persisted ledger in internal/transfer. Every
// read fails cleanly past the end of input; the first failure sticks and
// later reads return zero values, so a decoder checks Err once at the
// end instead of after every field.
//
// A Cursor accepts only canonical encodings — a uvarint without
// redundant continuation bytes, a bool that is 0 or 1 — so any document
// it accepts re-encodes to the same bytes.
type Cursor struct {
	data []byte
	off  int
	err  error
}

// NewCursor returns a cursor at the start of data.
func NewCursor(data []byte) Cursor { return Cursor{data: data} }

// Err returns the first failure, or nil.
func (c *Cursor) Err() error { return c.err }

// Fail records err as the cursor's failure unless one is already set.
func (c *Cursor) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Off returns the number of bytes consumed so far.
func (c *Cursor) Off() int { return c.off }

// Remaining returns the number of unread bytes.
func (c *Cursor) Remaining() int { return len(c.data) - c.off }

// Bytes returns the next n bytes (aliasing the input), or nil when fewer
// than n remain.
func (c *Cursor) Bytes(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > c.Remaining() {
		c.Fail(ErrMalformed)
		return nil
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b
}

// Byte returns the next byte.
func (c *Cursor) Byte() byte {
	b := c.Bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool returns the next byte as a bool; any value but 0 or 1 fails.
func (c *Cursor) Bool() bool {
	b := c.Byte()
	if b > 1 {
		c.Fail(ErrMalformed)
	}
	return b == 1
}

// Uvarint returns the next unsigned varint (encoding/binary). An
// overlong encoding — one ending in a redundant 0x00 byte — fails.
func (c *Cursor) Uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 || (n > 1 && c.data[c.off+n-1] == 0) {
		c.Fail(ErrMalformed)
		return 0
	}
	c.off += n
	return v
}

// Varint returns the next zig-zag signed varint (encoding/binary).
func (c *Cursor) Varint() int64 {
	u := c.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int returns the next signed varint as an int; a value an int cannot
// hold fails.
func (c *Cursor) Int() int {
	v := c.Varint()
	if int64(int(v)) != v {
		c.Fail(ErrMalformed)
		return 0
	}
	return int(v)
}

// Uint32 returns the next uvarint as a uint32; a larger value fails.
func (c *Cursor) Uint32() uint32 {
	v := c.Uvarint()
	if v > math.MaxUint32 {
		c.Fail(ErrMalformed)
		return 0
	}
	return uint32(v)
}

// Count returns the next uvarint as an element count, failing when the
// elements, each at least minBytes long, could not fit in the bytes
// left. A decoder may size a slice by the result: it is never larger
// than the input that must still arrive to fill it.
func (c *Cursor) Count(minBytes int) int {
	v := c.Uvarint()
	if v > uint64(c.Remaining()/minBytes) {
		c.Fail(ErrMalformed)
		return 0
	}
	return int(v)
}

// String returns the next uvarint-length-prefixed string.
func (c *Cursor) String() string {
	return string(c.Bytes(c.Count(1)))
}

// Fixed32 returns the next 4 bytes, little-endian.
func (c *Cursor) Fixed32() uint32 {
	b := c.Bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Fixed64 returns the next 8 bytes, little-endian.
func (c *Cursor) Fixed64() uint64 {
	b := c.Bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
