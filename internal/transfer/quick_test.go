package transfer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"automdt/internal/workload"
)

// Property: for any manifest and chunk size, the chunker emits
// non-overlapping, in-order chunks that exactly tile every file.
func TestQuickChunkerTilesManifest(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var m workload.Manifest
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			m = append(m, workload.File{
				Name: "f",
				Size: int64(rng.Intn(1 << 16)), // includes zero-size files
			})
		}
		chunkSize := 1 + rng.Intn(8192)
		c := newChunker(m, chunkSize, nil)
		offsets := make([]int64, len(m))
		var chunks int64
		for {
			id, off, sz, ok := c.next()
			if !ok {
				break
			}
			chunks++
			if sz <= 0 || sz > chunkSize {
				return false
			}
			if off != offsets[id] { // strictly sequential per file
				return false
			}
			offsets[id] += int64(sz)
		}
		if chunks != c.total {
			return false
		}
		for i, f := range m {
			if offsets[i] != f.Size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: staging accounting never goes negative and Used+Free == Cap
// whenever occupancy is within capacity.
func TestQuickStagingAccounting(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStaging(int64(1 + rng.Intn(1<<16)))
		var held []Chunk
		for op := 0; op < 200; op++ {
			if rng.Intn(2) == 0 {
				n := rng.Intn(2048)
				// Only Put when it cannot block forever in this
				// single-goroutine test: the guard mirrors Put's exact
				// block condition (buffer empty, or the chunk fits).
				// Note Free() is NOT a safe proxy — after an oversized
				// chunk was admitted into an empty buffer, Used() > Cap()
				// makes Free() zero yet a zero-length Put would still
				// block.
				if s.Used() == 0 || s.Used()+int64(n) <= s.capBytes {
					s.Put(Chunk{Data: make([]byte, n)})
				}
			} else if c, ok, _ := s.TryGet(); ok {
				held = append(held, c)
			}
			if s.Used() < 0 || s.Len() < 0 {
				return false
			}
			if s.Used() <= s.capBytes && s.Used()+s.Free() != s.capBytes {
				return false
			}
		}
		_ = held
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
