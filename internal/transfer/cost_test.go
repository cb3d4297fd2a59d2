package transfer

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"automdt/internal/fsim"
	"automdt/internal/wire"
	"automdt/internal/workload"
)

// The data path's per-chunk cost, counted exactly: the same loopback
// session runs at 64 and at 256 chunks, and the difference in a
// process-wide counter is divided by the 192 chunks added. The fixed
// per-session cost (handshake, pools, ledger, control messages) cancels
// out; what remains is what one more chunk costs.

// loopbackCost runs a checksummed loopback session over synthetic stores
// (8 files of chunksPerFile 256 KiB chunks) three times and returns the
// fewest heap allocations and wire.IOOps any run took. Noise (the first
// run's warm-up, a straggling goroutine of an earlier test) only adds to
// a run, so the minimum is the session's own cost. The sessions run on
// one P: with two, how often workers park and wake varies from run to
// run, and so do the few allocations each wake-up costs, by about as
// much as a per-chunk allocation adds over 192 chunks.
func loopbackCost(t *testing.T, chunksPerFile int) (mallocs, ioops float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := Config{
		ChunkBytes:     256 << 10,
		MaxThreads:     16,
		InitialThreads: 4,
		// No probe tick lands inside a session, so the per-tick status
		// messages and trace samples stay out of the per-chunk count.
		ProbeInterval: time.Minute,
	}
	m := workload.LargeFiles(8, int64(chunksPerFile)*(256<<10))
	mallocs, ioops = math.Inf(1), math.Inf(1)
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		m0, io0 := ms.Mallocs, wire.IOOps()
		if _, err := Loopback(context.Background(), cfg, m, fsim.NewSyntheticStore(), fsim.NewSyntheticStore(), nil); err != nil {
			t.Fatal(err)
		}
		io1 := wire.IOOps()
		runtime.ReadMemStats(&ms)
		mallocs = min(mallocs, float64(ms.Mallocs-m0))
		ioops = min(ioops, float64(io1-io0))
	}
	return mallocs, ioops
}

// addedChunkCost returns the heap allocations and wire.IOOps each chunk
// added between a 64- and a 256-chunk session costs.
func addedChunkCost(t *testing.T) (mallocs, ioops float64) {
	t.Helper()
	m64, io64 := loopbackCost(t, 8)
	m256, io256 := loopbackCost(t, 32)
	t.Logf("64 chunks: %.0f mallocs, %.0f IOOps; 256 chunks: %.0f mallocs, %.0f IOOps", m64, io64, m256, io256)
	return (m256 - m64) / 192, (io256 - io64) / 192
}

// Zero per-chunk allocations: the arena leases every payload buffer and
// the frame codec reuses its header scratch, so a session that moves
// more chunks allocates less than one more object per added chunk. A
// payload or header allocated per chunk shows up here as at least 1.
func TestLoopbackAllocsPerAddedChunk(t *testing.T) {
	mallocs, _ := addedChunkCost(t)
	if mallocs >= 1 {
		t.Fatalf("%.2f heap allocations per added chunk, want < 1", mallocs)
	}
}

// Four data-plane I/O operations per chunk: the source ReadAt, the frame
// write, the frame read and the destination WriteAt. The slack above 4
// is partial batches at stage boundaries; a fifth operation per chunk
// does not fit in it.
func TestLoopbackIOOpsPerAddedChunk(t *testing.T) {
	_, ioops := addedChunkCost(t)
	if ioops > 4.5 {
		t.Fatalf("%.2f wire.IOOps per added chunk, want ≤ 4.5 (ReadAt, frame write, frame read, WriteAt)", ioops)
	}
}
