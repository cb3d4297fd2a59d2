package wire

import (
	"bytes"
	"math/rand"
	"testing"
)

// BatchCRC hashes a contiguous run in one pass; the per-piece sums must
// match chunk-at-a-time PayloadCRC calls exactly, and folding them must
// reproduce the whole-run CRC.
func TestBatchCRCMatchesPerChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, total := range []int{0, 1, 64, 100, 256, 1000, 64<<10 + 13} {
		const chunk = 256
		p := make([]byte, total)
		rng.Read(p)

		sums := BatchCRC(nil, p, chunk)
		var want []uint32
		for off := 0; off < total; off += chunk {
			end := off + chunk
			if end > total {
				end = total
			}
			want = append(want, PayloadCRC(p[off:end]))
		}
		if len(sums) != len(want) {
			t.Fatalf("total=%d: %d sums, want %d", total, len(sums), len(want))
		}
		for i := range want {
			if sums[i] != want[i] {
				t.Fatalf("total=%d: sum[%d]=%08x, want %08x", total, i, sums[i], want[i])
			}
		}
		if total > 0 {
			if got, want := FoldChunkCRCs(sums, chunk, int64(total)), PayloadCRC(p); got != want {
				t.Fatalf("total=%d: folded CRC %08x, want whole-run %08x", total, got, want)
			}
		}
	}

	// chunk<=0 degenerates to one whole-buffer sum.
	p := []byte("degenerate")
	if sums := BatchCRC(nil, p, 0); len(sums) != 1 || sums[0] != PayloadCRC(p) {
		t.Fatalf("chunk=0 sums %v", sums)
	}
	if sums := BatchCRC(nil, nil, 0); sums != nil {
		t.Fatalf("empty payload produced sums %v", sums)
	}
}

// WriteBatch is an optimization, not a format: a batched write must put
// the exact bytes on the wire that sequential Write calls would, for any
// mix of full, short, empty-payload and precomputed-sum frames.
func TestWriteBatchByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	payload := func(n int) []byte {
		p := make([]byte, n)
		rng.Read(p)
		return p
	}
	frames := []Frame{
		{FileID: 1, Offset: 0, Data: payload(64 << 10)},
		{FileID: 1, Offset: 64 << 10, Data: payload(100)},
		{FileID: 2, Offset: 0, Data: nil}, // empty file announcement
		{FileID: 3, Offset: 0, Data: payload(512)},
	}
	// Precomputed-sum variant.
	frames = append(frames, Frame{FileID: 3, Offset: 512, Data: payload(512)})
	frames[4].Sum = PayloadCRC(frames[4].Data)
	frames[4].SumKnown = true

	var fw FrameWriter
	var batched, sequential bytes.Buffer
	if err := fw.WriteBatch(&batched, frames); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := fw.Write(&sequential, f); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(batched.Bytes(), sequential.Bytes()) {
		t.Fatalf("batched write differs from sequential (%d vs %d bytes)",
			batched.Len(), sequential.Len())
	}

	// The batch must re-read cleanly frame by frame.
	var reader FrameReader
	alloc := func(n int) []byte { return make([]byte, n) }
	for i := range frames {
		got, err := reader.Read(&batched, alloc)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.FileID != frames[i].FileID || got.Offset != frames[i].Offset ||
			!bytes.Equal(got.Data, frames[i].Data) {
			t.Fatalf("frame %d round-trip mismatch", i)
		}
	}

	// Degenerate batches: empty is a no-op, singleton equals Write.
	var empty bytes.Buffer
	if err := fw.WriteBatch(&empty, nil); err != nil || empty.Len() != 0 {
		t.Fatalf("empty batch wrote %d bytes, err %v", empty.Len(), err)
	}
	var one, oneSeq bytes.Buffer
	if err := fw.WriteBatch(&one, frames[:1]); err != nil {
		t.Fatal(err)
	}
	if err := fw.Write(&oneSeq, frames[0]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), oneSeq.Bytes()) {
		t.Fatal("singleton batch differs from Write")
	}
}
