// Resume: failure injection against a resumable session. Phase 1 starts
// a disk-backed transfer over a throttled loopback link and kills the
// receiver once the session's chunk ledger shows ~40% committed —
// emulating a DTN process dying mid-dataset. Phase 2 restarts the
// receiver against the same directory and the same session: the Welcome
// handshake advertises the persisted ledger, the sender plans only the
// missing ranges, and the run completes having re-sent almost nothing.
// The program verifies every destination byte and prints the ledger
// economics (committed, skipped, re-sent) plus the automdt_resume_*
// counters.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"automdt"
	"automdt/internal/fsim"
	"automdt/internal/metrics"
	"automdt/internal/transfer"
)

const session = "resume-demo"

func main() {
	dir, err := os.MkdirTemp("", "automdt-resume-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	manifest := automdt.LargeFiles(4, 4<<20) // 16 MiB
	total := manifest.TotalBytes()
	src := automdt.NewSyntheticStore()

	cfg := automdt.TransferConfig{
		ChunkBytes:     256 << 10,
		InitialThreads: 4,
		MaxThreads:     8,
		ProbeInterval:  25 * time.Millisecond,
		SessionID:      session,
		// Throttle so the kill lands mid-flight.
		Shaping: automdt.Shaping{LinkMbps: 400},
	}

	// ---- Phase 1: transfer, then kill the receiver mid-dataset. ----
	dst1, err := automdt.NewDirStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	rctx, kill := context.WithCancel(context.Background())
	recv := automdt.NewReceiver(cfg, dst1)
	if err := recv.Listen("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	recvErr := make(chan error, 1)
	go func() { recvErr <- recv.Serve(rctx) }()

	go func() {
		// Watch the persisted ledger and pull the plug at ~40%.
		for {
			if l, err := transfer.LoadSessionLedger(dst1, session); err == nil && l.CommittedBytes() > 2*total/5 {
				fmt.Printf("phase 1: killing receiver at %d / %d bytes committed\n",
					l.CommittedBytes(), total)
				kill()
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	send := automdt.NewSender(cfg, src, manifest, nil)
	if _, err := send.Run(context.Background(), recv.Addr()); err != nil {
		fmt.Printf("phase 1: sender failed as injected: %v\n", err)
	}
	<-recvErr
	kill()

	// ---- Phase 2: restart both ends; the session resumes. ----
	dst2, err := automdt.NewDirStore(dir) // fresh store value = fresh process
	if err != nil {
		log.Fatal(err)
	}
	// Snapshot + journal folded together — what the next attempt trusts.
	l, err := transfer.LoadSessionLedger(dst2, session)
	if err != nil {
		log.Fatal("no persisted ledger to resume from: ", err)
	}
	committed := l.CommittedBytes()
	fmt.Printf("phase 2: ledger survives restart with %d bytes (%.0f%%) committed\n",
		committed, 100*float64(committed)/float64(total))

	cfg2 := cfg
	cfg2.Shaping = automdt.Shaping{} // full speed for the remainder
	res, err := automdt.LoopbackTransfer(context.Background(), cfg2, manifest, src, dst2, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 2: resumed session %s in %v — skipped %d bytes, re-sent %d of %d\n",
		res.SessionID, res.Duration.Round(time.Millisecond),
		res.SkippedBytes, res.WireBytes, total)
	if !res.Resumed || res.SkippedBytes != committed {
		log.Fatalf("resume did not honour the ledger: %+v", res)
	}

	// Verify every byte that landed on disk.
	for _, f := range manifest {
		got, err := os.ReadFile(filepath.Join(dir, f.Name))
		if err != nil {
			log.Fatal(err)
		}
		want := make([]byte, f.Size)
		fsim.FillContent(f.Name, 0, want)
		if !bytes.Equal(got, want) {
			log.Fatalf("%s corrupt after resume", f.Name)
		}
	}
	fmt.Println("integrity check passed: every destination byte matches the source")
	fmt.Printf("\nresume counters:\n%s", metrics.ResumeSnapshot().Text())
}
