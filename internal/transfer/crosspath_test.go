package transfer

// Cross-path tests: the batched and chunk-at-a-time stages must be
// interchangeable on the wire. An unshaped network stage drains up to
// sendBatchChunks frames into one vectored write and an unshaped write
// stage lands adaptive batches; a shaped stage moves one chunk at a
// time. Each pairing moves real files (DirStore at both ends) and must
// land byte-identical content whichever side batches.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"automdt/internal/fsim"
	"automdt/internal/wire"
	"automdt/internal/workload"
)

// materializeDir writes the manifest's synthetic content into a fresh
// DirStore so the transfer moves real on-disk bytes.
func materializeDir(t *testing.T, dir string, m workload.Manifest) *fsim.DirStore {
	t.Helper()
	store, err := fsim.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m {
		w, err := store.Create(f.Name, f.Size)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64<<10)
		for off := int64(0); off < f.Size; off += int64(len(buf)) {
			n := int64(len(buf))
			if f.Size-off < n {
				n = f.Size - off
			}
			fsim.FillContent(f.Name, off, buf[:n])
			if _, err := w.WriteAt(buf[:n], off); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// TestCrossPathKioPortable runs every stage pairing. In the case names "kio" is a batched (unshaped) stage
// and "portable" a chunk-at-a-time stage, made so by a rate cap far
// above what loopback reaches: a batching sender against a
// chunk-at-a-time receiver and the reverse must be wire-compatible and
// byte-identical to the source.
func TestCrossPathKioPortable(t *testing.T) {
	const generousMbps = 4000 // selects chunk-at-a-time without pacing
	cases := []struct {
		name                 string
		sendBatch, recvBatch bool
	}{
		// Chunk-at-a-time sender ↔ batched receiver: adaptive write
		// batches against a one-frame-per-write stream.
		{"portable-send_kio-recv_crc", false, true},
		// Batched sender ↔ chunk-at-a-time receiver: vectored frame
		// batches against a chunk-at-a-time write stage.
		{"kio-send_portable-recv_crc", true, false},
		// Both ends batched: the unshaped path.
		{"kio-both_crc", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := workload.LargeFiles(3, 1<<20+7) // odd tails cross chunk grid
			src := materializeDir(t, t.TempDir(), m)
			dstDir := t.TempDir()
			dst, err := fsim.NewDirStore(dstDir)
			if err != nil {
				t.Fatal(err)
			}

			cfgRecv := testConfig()
			if !tc.recvBatch {
				cfgRecv.Shaping.WriteAggMbps = generousMbps
			}
			cfgSend := testConfig()
			if !tc.sendBatch {
				cfgSend.Shaping.NetPerStreamMbps = generousMbps
			}
			// Resumable session, so the persisted ledger's cleanup can be
			// checked.
			cfgSend.SessionID = "cross-" + tc.name

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			recv := NewReceiver(cfgRecv, dst)
			var sessionDone SessionResult
			recv.OnSessionDone = func(sr SessionResult) { sessionDone = sr }
			if err := recv.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			recvErr := make(chan error, 1)
			go func() { recvErr <- recv.ServeN(ctx, 1) }()
			send := &Sender{Cfg: cfgSend, Store: src, Manifest: m}
			res, err := send.Run(ctx, recv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if rerr := <-recvErr; rerr != nil {
				t.Fatal(rerr)
			}
			if res.WireBytes != m.TotalBytes() {
				t.Fatalf("wire bytes %d, want %d", res.WireBytes, m.TotalBytes())
			}
			// However writes were batched, the session ends with every
			// byte ledger-committed — per-chunk commits, since every
			// session verifies each FileSum against the ledger-folded
			// CRCs before reporting done — and the
			// completed session's persisted ledger cleaned up.
			if sessionDone.Err != nil {
				t.Fatalf("session result: %v", sessionDone.Err)
			}
			if sessionDone.CommittedBytes != m.TotalBytes() {
				t.Fatalf("ledger committed %d bytes, want %d",
					sessionDone.CommittedBytes, m.TotalBytes())
			}
			if _, err := dst.LoadLedger(cfgSend.SessionID); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("completed session left a persisted ledger (err %v)", err)
			}
			for _, f := range m {
				got, err := os.ReadFile(filepath.Join(dstDir, f.Name))
				if err != nil {
					t.Fatal(err)
				}
				want := make([]byte, f.Size)
				fsim.FillContent(f.Name, 0, want)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s differs from source after %s", f.Name, tc.name)
				}
				if g, w := wire.PayloadCRC(got), wire.PayloadCRC(want); g != w {
					t.Fatalf("%s CRC %08x, want %08x", f.Name, g, w)
				}
			}
		})
	}
}
