package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"testing/quick"
)

func alloc(n int) []byte { return make([]byte, n) }

// writeFrame writes one frame with a fresh FrameWriter.
func writeFrame(w io.Writer, f Frame) error { return new(FrameWriter).Write(w, f) }

// readFrame reads one frame with a fresh FrameReader.
func readFrame(r io.Reader, alloc func(n int) []byte) (Frame, error) {
	return new(FrameReader).Read(r, alloc)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{FileID: 7, Offset: 123456789, Data: []byte("hello chunk")}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if out.FileID != in.FileID || out.Offset != in.Offset || !bytes.Equal(out.Data, in.Data) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestEmptyPayloadFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, Frame{FileID: 1, Offset: 0}); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(&buf, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Data) != 0 {
		t.Fatalf("expected empty payload, got %d bytes", len(f.Data))
	}
}

// A header whose file id is all ones — the end-of-stream marker of
// protocols before 7 — is an ordinary frame: it decodes, and the caller
// decides whether it names a chunk of anything.
func TestEndStreamMarker(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, Frame{FileID: ^uint32(0), Offset: 8, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, Frame{FileID: ^uint32(0)}); err != nil {
		t.Fatal(err)
	}
	var fr FrameReader
	for i, want := range []string{"x", ""} {
		f, err := fr.Read(&buf, alloc)
		if err != nil || f.FileID != ^uint32(0) || string(f.Data) != want {
			t.Fatalf("all-ones header %d: %+v, %v", i, f, err)
		}
	}
	if _, err := fr.Read(&buf, alloc); err != io.EOF {
		t.Fatalf("want io.EOF after the frames, got %v", err)
	}
}

// A preamble at a frame boundary stops the reader with ErrPreamble and
// its token, allocating nothing, and the frame after it decodes.
func TestPreambleAtFrameBoundary(t *testing.T) {
	token := NewDataToken()
	var buf bytes.Buffer
	if err := writeFrame(&buf, Frame{FileID: 1, Data: []byte("before")}); err != nil {
		t.Fatal(err)
	}
	if err := WriteDataPreamble(&buf, token); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, Frame{FileID: 2, Data: []byte("after")}); err != nil {
		t.Fatal(err)
	}
	var fr FrameReader
	if f, err := fr.Read(&buf, alloc); err != nil || string(f.Data) != "before" {
		t.Fatalf("first frame %+v, %v", f, err)
	}
	_, err := fr.Read(&buf, func(int) []byte { t.Fatal("a preamble allocated a payload"); return nil })
	if !errors.Is(err, ErrPreamble) {
		t.Fatalf("want ErrPreamble, got %v", err)
	}
	if got := fr.Token(); hex.EncodeToString(got[:]) != token {
		t.Fatalf("token %x, want %s", got, token)
	}
	if f, err := fr.Read(&buf, alloc); err != nil || f.FileID != 2 || string(f.Data) != "after" {
		t.Fatalf("frame after the preamble %+v, %v", f, err)
	}
}

func TestCleanEOFAtBoundary(t *testing.T) {
	_, err := readFrame(bytes.NewReader(nil), alloc)
	if err != io.EOF {
		t.Fatalf("want io.EOF on empty stream, got %v", err)
	}
}

func TestTruncatedHeaderIsError(t *testing.T) {
	_, err := readFrame(bytes.NewReader([]byte{1, 2, 3}), alloc)
	if err == nil || err == io.EOF {
		t.Fatalf("truncated header should be a hard error, got %v", err)
	}
}

func TestTruncatedPayloadIsError(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(&buf, Frame{FileID: 1, Data: []byte("abcdef")})
	trunc := buf.Bytes()[:buf.Len()-3]
	_, err := readFrame(bytes.NewReader(trunc), alloc)
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated payload should be a hard error, got %v", err)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	var hdr [FrameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], 1)
	binary.BigEndian.PutUint32(hdr[12:16], MaxChunk+1)
	_, err := readFrame(bytes.NewReader(hdr[:]), alloc)
	if err == nil {
		t.Fatal("oversize frame accepted")
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
	in := Frame{FileID: 3, Offset: 42, Data: []byte("checksummed payload")}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if !out.SumKnown || out.Sum != PayloadCRC(in.Data) || !bytes.Equal(out.Data, in.Data) {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(&buf, Frame{FileID: 3, Data: []byte("payload here")})
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xFF // flip a payload bit
	_, err := readFrame(bytes.NewReader(raw), alloc)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corruption not detected: %v", err)
	}
}

// Every frame is verified. A plain frame of protocols before 7 — CRC
// field zero, no flag in the length — and a frame whose CRC field is
// wrong are rejected, and so is a flagged length of those protocols,
// which now reads as a length beyond MaxChunk.
func TestUnchecksummedFrameSkipsVerification(t *testing.T) {
	payload := []byte("plain")
	header := func(length, crc uint32) []byte {
		var hdr [FrameHeaderSize]byte
		binary.BigEndian.PutUint32(hdr[0:4], 1)
		binary.BigEndian.PutUint32(hdr[12:16], length)
		binary.BigEndian.PutUint32(hdr[16:20], crc)
		return append(hdr[:], payload...)
	}
	n := uint32(len(payload))
	for name, raw := range map[string][]byte{
		"zero CRC":     header(n, 0),
		"wrong CRC":    header(n, PayloadCRC(payload)^1),
		"flagged size": header(n|1<<31, PayloadCRC(payload)),
	} {
		if f, err := readFrame(bytes.NewReader(raw), alloc); err == nil {
			t.Errorf("%s: frame accepted: %+v", name, f)
		}
	}
	if f, err := readFrame(bytes.NewReader(header(n, PayloadCRC(payload))), alloc); err != nil || string(f.Data) != "plain" {
		t.Fatalf("correct frame: %+v, %v", f, err)
	}
}

func TestWriteFrameRejectsOversizePayload(t *testing.T) {
	var buf bytes.Buffer
	err := writeFrame(&buf, Frame{FileID: 1, Data: make([]byte, MaxChunk+1)})
	if err == nil {
		t.Fatal("oversize payload accepted on write")
	}
}

// Property: any frame round-trips exactly.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(id uint32, off int64, payload []byte) bool {
		if off < 0 {
			off = -off
		}
		if len(payload) > MaxChunk {
			payload = payload[:MaxChunk]
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, Frame{FileID: id, Offset: off, Data: payload}); err != nil {
			return false
		}
		out, err := readFrame(&buf, alloc)
		if err != nil {
			return false
		}
		return out.FileID == id && out.Offset == off && bytes.Equal(out.Data, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
