package transfer

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"automdt/internal/fsim"
	"automdt/internal/wire"
	"automdt/internal/workload"
)

// The receiver's data-connection reader, readConn, fed from in-memory
// frame streams: how many reads it asks of the connection, that the
// read-ahead changes nothing it decodes, and that its pooled buffer
// comes back on every way out.

const readConnChunk = 256 << 10

// readConnManifest has 64 one-chunk 4 KiB files, then a file of one full
// 256 KiB chunk and a file of a full chunk plus a 100-byte tail.
func readConnManifest() workload.Manifest {
	var m workload.Manifest
	for i := 0; i < 64; i++ {
		m = append(m, workload.File{Name: fmt.Sprintf("small-%02d", i), Size: 4 << 10})
	}
	return append(m,
		workload.File{Name: "large", Size: readConnChunk},
		workload.File{Name: "tail", Size: readConnChunk + 100})
}

// readConnFrames is every chunk of readConnManifest, in file order.
func readConnFrames(m workload.Manifest) []wire.Frame {
	var frames []wire.Frame
	for id, f := range m {
		for off := int64(0); off < f.Size; off += readConnChunk {
			data := make([]byte, min(readConnChunk, f.Size-off))
			fsim.FillContent(f.Name, off, data)
			frames = append(frames, wire.Frame{FileID: uint32(id), Offset: off, Data: data})
		}
	}
	return frames
}

// encodeFrames returns frames as one data stream.
func encodeFrames(t *testing.T, frames []wire.Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	var fw wire.FrameWriter
	for _, f := range frames {
		if err := fw.Write(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// newReadConnSession is the part of a receiver session readConn uses:
// a chunk grid over m, an arena and a staging buffer that holds all of m.
func newReadConnSession(m workload.Manifest) *rsession {
	s := &rsession{staging: NewStaging(4 << 20), arena: NewArena(16 << 20)}
	s.ledger.Store(NewLedger("readconn", readConnChunk, m, true))
	return s
}

// staged drains s's staging buffer, returning each chunk's coordinates
// and a copy of its payload, and releases the leases.
func staged(s *rsession) []wire.Frame {
	var out []wire.Frame
	for {
		c, ok, _ := s.staging.TryGet()
		if !ok {
			return out
		}
		out = append(out, wire.Frame{FileID: c.FileID, Offset: c.Offset, Data: bytes.Clone(c.Data)})
		c.Release()
	}
}

// sameFrames reports the first difference between two frame lists by
// coordinates and payload.
func sameFrames(got, want []wire.Frame) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d frames, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.FileID != w.FileID || g.Offset != w.Offset || !bytes.Equal(g.Data, w.Data) {
			return fmt.Errorf("frame %d is %d@%d+%d, want %d@%d+%d", i, g.FileID, g.Offset, len(g.Data), w.FileID, w.Offset, len(w.Data))
		}
	}
	return nil
}

// countingReader counts the reads asked of it.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

func TestReadConnReadsAhead(t *testing.T) {
	m := readConnManifest()
	frames := readConnFrames(m)[:64] // the 4 KiB files, back to back
	s := newReadConnSession(m)
	conn := &countingReader{r: bytes.NewReader(encodeFrames(t, frames))}
	s.readConn(conn)
	if err := sameFrames(staged(s), frames); err != nil {
		t.Fatal(err)
	}
	// The first frame is two reads, header then payload; the other 63 ×
	// (20 + 4096) bytes are four 64 KiB read-aheads, then the read that
	// finds the end. Two reads a frame would be 128.
	if conn.reads > 8 {
		t.Fatalf("%d reads for 64 back-to-back 4 KiB frames, want ≤ 8", conn.reads)
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
}

// A run of 256 KiB frames is read as the parent read every frame:
// header, then payload straight into its lease, with no byte passing
// through the read-ahead buffer.
func TestReadConnLargeFramesBypassReadAhead(t *testing.T) {
	m := readConnManifest()
	frames := readConnFrames(m)[64:66] // large, then the first chunk of tail
	s := newReadConnSession(m)
	conn := &bufferSizes{r: bytes.NewReader(encodeFrames(t, frames))}
	s.readConn(conn)
	if err := sameFrames(staged(s), frames); err != nil {
		t.Fatal(err)
	}
	if conn.intoReadAhead != 0 {
		t.Fatalf("%d bytes of 256 KiB frames went through the read-ahead buffer, want 0", conn.intoReadAhead)
	}
}

// bufferSizes counts the bytes read into buffers the size of the
// read-ahead buffer.
type bufferSizes struct {
	r             io.Reader
	intoReadAhead int
}

func (b *bufferSizes) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if len(p) == readAheadBytes {
		b.intoReadAhead += n
	}
	return n, err
}

// However the connection splits the stream, readConn stages the same
// chunks: a read-ahead that ends inside a header or a payload, and a
// payload larger than the read-ahead, read partly from it and partly
// straight into its lease.
func TestReadConnDecodesAnySplit(t *testing.T) {
	m := readConnManifest()
	frames := readConnFrames(m)
	stream := encodeFrames(t, frames)
	for _, tc := range []struct {
		name string
		conn func() io.Reader
	}{
		{"whole reads", func() io.Reader { return bytes.NewReader(stream) }},
		{"one byte a read", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) }},
		{"half of each read", func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) }},
		{"data with the last read's EOF", func() io.Reader { return iotest.DataErrReader(bytes.NewReader(stream)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newReadConnSession(m)
			s.readConn(tc.conn())
			if err := sameFrames(staged(s), frames); err != nil {
				t.Fatal(err)
			}
			if s.Err() != nil {
				t.Fatal(s.Err())
			}
			if inUse := s.arena.Stats().InUseBytes; inUse != 0 {
				t.Fatalf("%d arena bytes still leased", inUse)
			}
		})
	}
}

// Every way readConn ends: what it stages, whether it fails the
// session, and that its read-ahead buffer is back in the pool holding
// no reference to the connection.
func TestReadConnExits(t *testing.T) {
	m := readConnManifest()
	frames := readConnFrames(m)[:8]
	stream := encodeFrames(t, frames)
	// Each frame of the stream is 20 header bytes and 4096 payload bytes.
	const frameBytes = wire.FrameHeaderSize + 4<<10
	for _, tc := range []struct {
		name    string
		stream  func() []byte
		prepare func(s *rsession)
		staged  int    // frames staged before the exit
		fails   string // the session error, if the exit fails it
	}{
		{"clean end of stream", func() []byte { return stream }, nil, 8, ""},
		// The end marker of protocols before 7 is an ordinary header now,
		// and its frame is no chunk of the session.
		{"end-of-stream marker", func() []byte {
			var hdr [wire.FrameHeaderSize]byte
			wire.EncodeHeader(&hdr, wire.Frame{FileID: ^uint32(0)})
			return append(bytes.Clone(stream), hdr[:]...)
		}, nil, 8, "frame 4294967295@0+0 is not a chunk of this session"},
		{"checksum mismatch drops the connection", func() []byte {
			b := bytes.Clone(stream)
			b[3*frameBytes+wire.FrameHeaderSize+100] ^= 0xFF // the fourth frame's payload
			return b
		}, nil, 3, ""},
		{"a stream cut inside a payload", func() []byte { return stream[:5*frameBytes+wire.FrameHeaderSize+10] }, nil, 5, ""},
		{"a frame off the chunk grid fails the session", func() []byte {
			var fw wire.FrameWriter
			var b bytes.Buffer
			b.Write(stream[:2*frameBytes])
			fw.Write(&b, wire.Frame{FileID: 2, Offset: 1, Data: make([]byte, 100)})
			return b.Bytes()
		}, nil, 2, "frame 2@1+100 is not a chunk of this session"},
		{"a closed staging buffer", func() []byte { return stream }, func(s *rsession) { s.staging.Close() }, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkReadAheadReturned(t, tc.stream(), func(conn io.Reader) {
				s := newReadConnSession(m)
				if tc.prepare != nil {
					tc.prepare(s)
				}
				s.readConn(conn)
				if err := sameFrames(staged(s), frames[:tc.staged]); err != nil {
					t.Fatal(err)
				}
				switch err := s.Err(); {
				case tc.fails == "" && err != nil:
					t.Fatalf("session failed: %v", err)
				case tc.fails != "" && (err == nil || !strings.Contains(err.Error(), tc.fails)):
					t.Fatalf("session error %v, want one saying %q", err, tc.fails)
				}
				if inUse := s.arena.Stats().InUseBytes; inUse != 0 {
					t.Fatalf("%d arena bytes still leased", inUse)
				}
			})
		})
	}
}

// checkReadAheadReturned runs read over a connection serving stream
// and checks that the read-ahead buffer goes back to the pool, and that
// the connection can be collected while that buffer is held. It runs on
// one P, where a Put and the next Get meet in the same per-P slot: the
// buffer put there first is the one read takes, and the one the pool
// hands out next. The race detector makes sync.Pool drop a random
// quarter of its Puts, so an attempt that gets another buffer back is
// repeated, up to 20 times.
func checkReadAheadReturned(t *testing.T, stream []byte, read func(io.Reader)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for attempt := 0; attempt < 20; attempt++ {
		br := readAheads.Get()
		readAheads.Put(br)
		conn := &countingReader{r: bytes.NewReader(stream)}
		collected := make(chan struct{})
		runtime.SetFinalizer(conn, func(*countingReader) { close(collected) })
		read(conn)
		conn = nil

		got := readAheads.Get()
		released := connCollected(collected)
		readAheads.Put(got)
		if got != br {
			continue
		}
		if !released {
			t.Fatal("the pooled read-ahead buffer keeps the connection reachable")
		}
		return
	}
	t.Fatal("the read-ahead buffer did not go back to the pool")
}

// connCollected reports whether collected closes within a second of
// garbage collections.
func connCollected(collected <-chan struct{}) bool {
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}
