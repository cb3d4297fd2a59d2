package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"testing/quick"
)

func alloc(n int) []byte { return make([]byte, n) }

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{FileID: 7, Offset: 123456789, Data: []byte("hello chunk")}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if out.FileID != in.FileID || out.Offset != in.Offset || !bytes.Equal(out.Data, in.Data) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestEmptyPayloadFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{FileID: 1, Offset: 0}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Data) != 0 {
		t.Fatalf("expected empty payload, got %d bytes", len(f.Data))
	}
}

func TestEndStreamMarker(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEnd(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFrame(&buf, alloc)
	if err != io.EOF {
		t.Fatalf("want io.EOF on end marker, got %v", err)
	}
}

func TestCleanEOFAtBoundary(t *testing.T) {
	_, err := ReadFrame(bytes.NewReader(nil), alloc)
	if err != io.EOF {
		t.Fatalf("want io.EOF on empty stream, got %v", err)
	}
}

func TestTruncatedHeaderIsError(t *testing.T) {
	_, err := ReadFrame(bytes.NewReader([]byte{1, 2, 3}), alloc)
	if err == nil || err == io.EOF {
		t.Fatalf("truncated header should be a hard error, got %v", err)
	}
}

func TestTruncatedPayloadIsError(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, Frame{FileID: 1, Data: []byte("abcdef")})
	trunc := buf.Bytes()[:buf.Len()-3]
	_, err := ReadFrame(bytes.NewReader(trunc), alloc)
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated payload should be a hard error, got %v", err)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	var hdr [FrameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], 1)
	binary.BigEndian.PutUint32(hdr[12:16], MaxChunk+1)
	_, err := ReadFrame(bytes.NewReader(hdr[:]), alloc)
	if err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestControlChannelMessages(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	go func() {
		ca.Send(Message{Hello: &Hello{
			Files:          []FileInfo{{Name: "x", Size: 10}},
			ChunkBytes:     1024,
			InitialWriters: 8,
		}})
		ca.Send(Message{SetWriters: &SetWriters{N: 5}})
		ca.Send(Message{Status: &Status{CommittedBytes: 10, Done: true}})
	}()

	m1, err := cb.Recv()
	if err != nil || m1.Hello == nil || m1.Hello.Files[0].Name != "x" {
		t.Fatalf("hello: %+v err=%v", m1, err)
	}
	m2, err := cb.Recv()
	if err != nil || m2.SetWriters == nil || m2.SetWriters.N != 5 {
		t.Fatalf("setwriters: %+v err=%v", m2, err)
	}
	m3, err := cb.Recv()
	if err != nil || m3.Status == nil || !m3.Status.Done {
		t.Fatalf("status: %+v err=%v", m3, err)
	}
}

func TestControlChannelBidirectional(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()
	errCh := make(chan error, 1)
	go func() {
		if err := cb.Send(Message{Status: &Status{CommittedBytes: 1}}); err != nil {
			errCh <- err
			return
		}
		_, err := cb.Recv()
		errCh <- err
	}()
	if _, err := ca.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := ca.Send(Message{SetWriters: &SetWriters{N: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestChecksummedFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{FileID: 3, Offset: 42, Data: []byte("checksummed payload"), Checksum: true}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Checksum || !bytes.Equal(out.Data, in.Data) {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, Frame{FileID: 3, Data: []byte("payload here"), Checksum: true})
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xFF // flip a payload bit
	_, err := ReadFrame(bytes.NewReader(raw), alloc)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestUnchecksummedFrameSkipsVerification(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, Frame{FileID: 1, Data: []byte("plain")})
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xFF // corrupt: must pass (no checksum requested)
	f, err := ReadFrame(bytes.NewReader(raw), alloc)
	if err != nil || f.Checksum {
		t.Fatalf("plain frame mishandled: %+v err=%v", f, err)
	}
}

func TestWriteFrameRejectsOversizePayload(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, Frame{FileID: 1, Data: make([]byte, MaxChunk+1)})
	if err == nil {
		t.Fatal("oversize payload accepted on write")
	}
}

// Property: any frame round-trips exactly.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(id uint32, off int64, payload []byte) bool {
		if id == EndStream {
			id = 0
		}
		if off < 0 {
			off = -off
		}
		if len(payload) > MaxChunk {
			payload = payload[:MaxChunk]
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, Frame{FileID: id, Offset: off, Data: payload}); err != nil {
			return false
		}
		out, err := ReadFrame(&buf, alloc)
		if err != nil {
			return false
		}
		return out.FileID == id && out.Offset == off && bytes.Equal(out.Data, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
