package wire

import (
	"bytes"
	"math/rand"
	"net"
	"testing"
)

// pipePair returns two control channels over an in-memory pipe, closed on
// test cleanup.
func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

// roundTrip writes f through the frame codec and reads it back.
func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf, func(n int) []byte { return make([]byte, n) })
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCombineCRCMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 64; trial++ {
		n := 1 + rng.Intn(1<<14)
		data := make([]byte, n)
		rng.Read(data)
		split := rng.Intn(n + 1)
		a, b := data[:split], data[split:]
		got := CombineCRC(PayloadCRC(a), PayloadCRC(b), int64(len(b)))
		if want := PayloadCRC(data); got != want {
			t.Fatalf("trial %d (n=%d split=%d): combined %#x want %#x", trial, n, split, got, want)
		}
	}
}

func TestCombineCRCEmptyTail(t *testing.T) {
	crc := PayloadCRC([]byte("payload"))
	if got := CombineCRC(crc, 0, 0); got != crc {
		t.Fatalf("empty tail changed crc: %#x want %#x", got, crc)
	}
}

// Property: folding a buffer chunk-by-chunk through CombineCRC equals the
// one-shot CRC — exactly how the engine derives whole-file sums from the
// per-chunk sums in a session ledger.
func TestCombineCRCChunkFold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 100<<10)
	rng.Read(data)
	for _, chunk := range []int{1, 977, 4 << 10, 64 << 10, len(data)} {
		var crc uint32
		first := true
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			part := PayloadCRC(data[off:end])
			if first {
				crc, first = part, false
			} else {
				crc = CombineCRC(crc, part, int64(end-off))
			}
		}
		if want := PayloadCRC(data); crc != want {
			t.Fatalf("chunk=%d: folded %#x want %#x", chunk, crc, want)
		}
	}
}

// The resumable-session handshake messages must survive the gob channel,
// including ledger bitmaps and per-file sums.
// A checksummed frame written with a precomputed Sum must be identical to
// one whose CRC the encoder derives itself, and reads must surface the
// verified sum.
func TestFramePrecomputedSum(t *testing.T) {
	payload := []byte("ledger chunk payload")
	var direct, precomp [FrameHeaderSize]byte
	if err := EncodeHeader(&direct, Frame{FileID: 1, Data: payload, Checksum: true}); err != nil {
		t.Fatal(err)
	}
	f := Frame{FileID: 1, Data: payload, Checksum: true, Sum: PayloadCRC(payload), SumKnown: true}
	if err := EncodeHeader(&precomp, f); err != nil {
		t.Fatal(err)
	}
	if direct != precomp {
		t.Fatalf("precomputed sum encoded differently:\n%x\n%x", direct, precomp)
	}
	out := roundTrip(t, f)
	if !out.SumKnown || out.Sum != PayloadCRC(payload) {
		t.Fatalf("read did not surface verified sum: %+v", out)
	}
}
