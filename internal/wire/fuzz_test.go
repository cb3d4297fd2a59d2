package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
)

func fuzzAlloc(n int) []byte { return make([]byte, n) }

// FuzzReadFrame feeds arbitrary bytes to the frame decoder: it must
// never panic, never allocate beyond MaxChunk for a corrupt length, and
// anything it accepts must re-encode and re-decode to the same frame.
func FuzzReadFrame(f *testing.F) {
	// Valid frames.
	var plain, summed bytes.Buffer
	writeFrame(&plain, Frame{FileID: 3, Offset: 512, Data: []byte("hello wire")})
	writeFrame(&summed, Frame{FileID: 9, Offset: 1 << 40, Data: []byte("check me")})
	f.Add(plain.Bytes())
	f.Add(summed.Bytes())
	// An all-ones file id, truncated header, truncated payload, and a
	// header claiming an absurd length.
	var end bytes.Buffer
	writeFrame(&end, Frame{FileID: ^uint32(0)})
	f.Add(end.Bytes())
	f.Add(plain.Bytes()[:FrameHeaderSize-2])
	f.Add(plain.Bytes()[:FrameHeaderSize+3])
	huge := make([]byte, FrameHeaderSize)
	binary.BigEndian.PutUint32(huge[12:16], MaxChunk+1)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		var alloced int
		alloc := func(n int) []byte {
			alloced = n
			return make([]byte, n)
		}
		got, err := readFrame(bytes.NewReader(data), alloc)
		if alloced > MaxChunk {
			t.Fatalf("decoder allocated %d > MaxChunk for corrupt input", alloced)
		}
		if err != nil {
			return
		}
		// Accepted frame: the round trip must be lossless.
		var re bytes.Buffer
		if err := writeFrame(&re, got); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		back, err := readFrame(bytes.NewReader(re.Bytes()), fuzzAlloc)
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if back.FileID != got.FileID || back.Offset != got.Offset ||
			back.Sum != got.Sum || !bytes.Equal(back.Data, got.Data) {
			t.Fatalf("round trip mismatch: %+v != %+v", back, got)
		}
	})
}

// FuzzFrameRoundTrip drives the encoder with arbitrary frame fields and
// checks the decoder recovers them exactly — and that Verify rejects a
// frame with any payload bit flipped, which Read hands over with the
// header's sum untouched. The bool argument is unused: it once switched
// the checksum off, and stays so that corpus entries written for that
// signature still load.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint32(0), int64(0), []byte(nil), false, uint16(0))
	f.Add(uint32(12), int64(1<<30), []byte("payload bytes"), true, uint16(3))
	f.Add(^uint32(0), int64(-1), bytes.Repeat([]byte{0xAA}, 300), true, uint16(299))

	f.Fuzz(func(t *testing.T, fileID uint32, offset int64, payload []byte, _ bool, flip uint16) {
		in := Frame{FileID: fileID, Offset: offset, Data: payload}
		var buf bytes.Buffer
		var fw FrameWriter
		if err := fw.Write(&buf, in); err != nil {
			t.Fatalf("encode: %v", err)
		}
		encoded := buf.Bytes()

		var fr FrameReader
		out, err := fr.Read(bytes.NewReader(encoded), fuzzAlloc)
		if err != nil {
			t.Fatalf("decode of valid frame: %v", err)
		}
		if out.FileID != in.FileID || out.Offset != in.Offset || out.Sum != PayloadCRC(in.Data) {
			t.Fatalf("header mismatch: %+v != %+v", out, in)
		}
		if !bytes.Equal(out.Data, in.Data) {
			t.Fatal("payload mismatch")
		}
		if err := out.Verify(); err != nil {
			t.Fatalf("valid frame fails Verify: %v", err)
		}

		// Every truncation of a data frame must error, never hang or
		// fabricate a frame (except the empty prefix, which is a clean
		// EOF at a frame boundary).
		if _, err := readFrame(bytes.NewReader(encoded[:len(encoded)/2]), fuzzAlloc); err == nil && len(encoded) >= 2 {
			t.Fatal("truncated frame decoded without error")
		}

		// Payload corruption must be detected, whichever byte is hit:
		// not by Read, which hands the header's sum over untouched, but
		// by Verify.
		if len(payload) > 0 {
			corrupt := bytes.Clone(encoded)
			corrupt[FrameHeaderSize+int(flip)%len(payload)] ^= 0x01
			bad, err := readFrame(bytes.NewReader(corrupt), fuzzAlloc)
			if err != nil || bad.Sum != out.Sum {
				t.Fatalf("corrupted payload read as %+v, %v, want the header's sum %#x", bad, err, out.Sum)
			}
			if bad.Verify() == nil {
				t.Fatal("corrupted payload accepted")
			}
		}
	})
}

// A clean close at a frame boundary is the only EOF, so pipelines can
// distinguish "done" from "corrupt": an all-ones header, the end marker
// of protocols before 7, is an ordinary frame.
func TestReadFrameCleanEOFContract(t *testing.T) {
	if _, err := readFrame(bytes.NewReader(nil), fuzzAlloc); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	var end bytes.Buffer
	writeFrame(&end, Frame{FileID: ^uint32(0)})
	if f, err := readFrame(bytes.NewReader(end.Bytes()), fuzzAlloc); err != nil || f.FileID != ^uint32(0) {
		t.Fatalf("all-ones header: %+v, %v, want an ordinary frame", f, err)
	}
}

// FuzzControlDecode feeds arbitrary bytes to the control-message reader.
// It must never panic; it must never allocate more than a fixed multiple
// of the bytes it was given (a decoded FileInfo or FileState is larger
// than its few encoded bytes) plus one body-buffer growth step, however
// large a length the header announces; and any message it accepts must
// re-encode to exactly the bytes it was read from, except a handshake of
// another generation, of which only the version is read.
func FuzzControlDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		enc, _ := appendMessage(nil, m)
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
	}
	f.Add([]byte{0x42, 0})
	f.Add([]byte{tagHello, 0xff, 0xff, 0xff, 0x1f})
	f.Add([]byte{tagLedgerState, 3, 0, 0x7f, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := recvBytes(data)
		runtime.ReadMemStats(&after)
		const perByte, fixed = 20, recvGrowStep + 8<<10 // fixed: the step, bufio and the Conn
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(perByte*len(data)+fixed) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil || foreign(m) {
			return
		}
		re, err := appendMessage(nil, m)
		if err != nil {
			t.Fatalf("re-encode of accepted message %s: %v", dump(m), err)
		}
		if !bytes.HasPrefix(data, re) {
			t.Fatalf("accepted message re-encodes differently:\n read %x\n wrote %x", data[:min(len(data), len(re))], re)
		}
	})
}

// foreign reports whether m is a Hello or Welcome of another generation.
func foreign(m Message) bool {
	return (m.Hello != nil && m.Hello.ProtoVersion != ProtoVersion) ||
		(m.Welcome != nil && m.Welcome.ProtoVersion != ProtoVersion)
}

// fuzzMessage builds a message of type kind%7 from fuzzed field values:
// raw supplies bitmap words and u%5 the manifest's length. A handshake's
// version is ProtoVersion offset by a high part of i2 or i1.
func fuzzMessage(kind uint8, i1, i2 int64, u uint64, s1, s2 string, flag bool, mbps float64, raw []byte) Message {
	var words []uint64
	for ; len(raw) >= 8; raw = raw[8:] {
		words = append(words, binary.LittleEndian.Uint64(raw))
	}
	var ledger []FileState
	if len(words) > 0 || flag {
		ledger = []FileState{{FileID: uint32(u), CommittedBytes: i1, Bitmap: words}, {FileID: uint32(u >> 32), CommittedBytes: i2}}
	}
	var files []FileInfo
	for i := 0; i < int(u%5); i++ {
		files = append(files, FileInfo{Name: s2[:len(s2)*i/5], Size: i1 - int64(i)})
	}
	switch kind % 7 {
	case 0:
		return Message{Hello: &Hello{Files: files, ChunkBytes: int(i1), InitialWriters: int(i2),
			ReceiverBufBytes: int64(u), ProtoVersion: ProtoVersion + int(i2>>7), SessionID: s1}}
	case 1:
		return Message{Welcome: &Welcome{ProtoVersion: ProtoVersion + int(i1>>7), SessionID: s1, ChunkBytes: int(i2),
			Ledger: ledger, DataToken: s2}}
	case 2:
		return Message{SetWriters: &SetWriters{N: int(i1)}}
	case 3:
		return Message{FileSum: &FileSum{FileID: uint32(u), CRC: uint32(i1)}}
	case 4:
		return Message{Status: &Status{BufFree: i1, WriteMbps: mbps, Writers: int(i2), Done: flag,
			CommittedBytes: int64(u), Error: s1}}
	case 5:
		return Message{LedgerPull: &LedgerPull{Seq: u}}
	default:
		return Message{LedgerState: &LedgerState{Seq: u, Ledger: ledger}}
	}
}

// FuzzControlRoundTrip drives the encoder with fuzzed fields of all
// seven message types: each is one message that decodes back to every
// field it was built from (a handshake of another generation: to its
// version), and every strict prefix of its encoding is refused rather
// than decoded.
func FuzzControlRoundTrip(f *testing.F) {
	f.Add(uint8(0), int64(64<<10), int64(8), uint64(3), "sess", "f.dat", true, 0.0, []byte(nil), uint16(1))
	f.Add(uint8(1), int64(-1), int64(1<<40), uint64(1<<63), "", "token", false, 0.0, bytes.Repeat([]byte{0xA5}, 24), uint16(7))
	f.Add(uint8(4), int64(1<<62), int64(-3), uint64(0), "disk full", "", true, 812.375, []byte(nil), uint16(3))
	f.Add(uint8(6), int64(0), int64(0), ^uint64(0), "", "", true, math.Inf(-1), make([]byte, 16), uint16(0))

	f.Fuzz(func(t *testing.T, kind uint8, i1, i2 int64, u uint64, s1, s2 string, flag bool, mbps float64, raw []byte, cut uint16) {
		in := fuzzMessage(kind, i1, i2, u, s1, s2, flag, mbps, raw)
		rwc := &countingRWC{}
		if err := NewConn(rwc).Send(in); err != nil {
			t.Fatalf("send %s: %v", dump(in), err)
		}
		if rwc.writes != 1 {
			t.Fatalf("%s took %d writes", dump(in), rwc.writes)
		}
		enc := bytes.Clone(rwc.out.Bytes())
		out, err := recvBytes(enc)
		if err != nil {
			t.Fatalf("decode of %s: %v", dump(in), err)
		}
		if in.Status != nil && out.Status != nil &&
			math.Float64bits(in.Status.WriteMbps) == math.Float64bits(out.Status.WriteMbps) {
			in.Status.WriteMbps, out.Status.WriteMbps = 0, 0 // NaN is not DeepEqual to itself
		}
		switch {
		case in.Hello != nil && foreign(in):
			in = Message{Hello: &Hello{ProtoVersion: in.Hello.ProtoVersion}}
		case in.Welcome != nil && foreign(in):
			in = Message{Welcome: &Welcome{ProtoVersion: in.Welcome.ProtoVersion}}
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip:\n got %s\nwant %s", dump(out), dump(in))
		}
		if _, err := recvBytes(enc[:int(cut)%len(enc)]); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte message decoded", int(cut)%len(enc), len(enc))
		}
	})
}
