package transfer

import (
	"context"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"automdt/internal/fsim"
	"automdt/internal/wire"
	"automdt/internal/workload"
)

// The control channel alone decides how a sender's run ends. A scripted
// receiver admits the session, drains its data connections, and once the
// first frame lands either speaks a verdict and closes everything, or
// closes only the data connections while its control channel stays up
// and answers ledger pulls. No row may wait on a timer: the live-receiver
// row must fail within 250 ms of the last data close.
func TestSenderVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name string
		// verdict is sent before every data connection and then the
		// control channel close; nil closes only the data connections.
		verdict *wire.Status
		want    string // "" for a completed run
	}{
		{"done then close", &wire.Status{Done: true}, ""},
		{"data dies, receiver alive", nil, "every data connection is dead"},
		{"error then close", &wire.Status{Error: "disk full (fake)"}, "disk full (fake)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()

			// Data side: every connection is drained; once closeData runs,
			// open ones are closed and later ones are closed on their
			// first byte.
			var mu sync.Mutex
			var conns []net.Conn
			var closed bool
			var lastClose time.Time
			closeData := func() {
				mu.Lock()
				defer mu.Unlock()
				closed = true
				for _, c := range conns {
					c.Close()
				}
				conns = nil
				lastClose = time.Now()
			}
			flowing := make(chan struct{})
			var flowOnce sync.Once
			serveData := func(c net.Conn) {
				mu.Lock()
				if closed {
					c.Close()
					lastClose = time.Now()
					mu.Unlock()
					return
				}
				conns = append(conns, c)
				mu.Unlock()
				// The rest of the preamble and a frame's first byte.
				var rest [wire.PreambleBytes]byte
				if _, err := io.ReadFull(c, rest[:]); err != nil {
					return
				}
				flowOnce.Do(func() { close(flowing) })
				io.Copy(io.Discard, c)
			}

			// One listener, dispatching on each connection's first byte
			// as the endpoint does; the first control connection goes to
			// the control side.
			ctrlConns := make(chan io.ReadWriteCloser, 1)
			go func() {
				for {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					go func() {
						var first [1]byte
						if _, err := io.ReadFull(c, first[:]); err != nil {
							c.Close()
							return
						}
						if first[0] == wire.PreambleMagic[0] {
							serveData(c)
							return
						}
						select {
						case ctrlConns <- unread(c, first[0]):
						default:
							c.Close()
						}
					}()
				}
			}()

			// Control side.
			fakeDone := make(chan struct{})
			go func() {
				defer close(fakeDone)
				c := wire.NewConn(<-ctrlConns)
				defer c.Close()
				if m, err := c.Recv(); err != nil || m.Hello == nil {
					return
				}
				c.Send(wire.Message{Welcome: &wire.Welcome{
					ProtoVersion: wire.ProtoVersion, SessionID: "fake", DataToken: wire.NewDataToken(),
				}})
				hungUp := make(chan struct{})
				go func() {
					defer close(hungUp)
					for {
						m, err := c.Recv()
						if err != nil {
							return
						}
						if m.LedgerPull != nil && tc.verdict == nil {
							c.Send(wire.Message{LedgerState: &wire.LedgerState{Seq: m.LedgerPull.Seq}})
						}
					}
				}()
				select {
				case <-flowing:
				case <-hungUp:
					return
				}
				if tc.verdict != nil {
					c.Send(wire.Message{Status: tc.verdict})
				}
				closeData()
				if tc.verdict == nil {
					<-hungUp // control stays up until the sender hangs up
				}
			}()

			cfg := testConfig()
			cfg.Conns = 2
			send := &Sender{Cfg: cfg, Store: fsim.NewSyntheticStore(), Manifest: workload.LargeFiles(4, 1<<20)}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			res, err := send.Run(ctx, ln.Addr().String())
			returned := time.Now()
			<-fakeDone

			if tc.want == "" {
				if err != nil || res == nil || res.SessionID != "fake" {
					t.Fatalf("Run = %+v, %v; want the fake session's result and no error", res, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run error %v, want one saying %q", err, tc.want)
			}
			if tc.verdict == nil {
				mu.Lock()
				after := returned.Sub(lastClose)
				mu.Unlock()
				if after > 250*time.Millisecond {
					t.Fatalf("Run failed %v after the last data close, want ≤ 250ms", after)
				}
			}
		})
	}
}

// A session owes one FileSum per non-empty file that had no
// committed chunk when the Welcome went out, and completes exactly when
// the ledger is full and each owed sum is verified. A raw peer commits
// every frame first and then delivers the sums, so the rows pin all
// three endings: Done right after the last owed sum, a CRC mismatch, and
// a control channel that closes with a sum still owed.
func TestReceiverVerdicts(t *testing.T) {
	const chunk = 64 << 10
	files := []wire.FileInfo{
		{Name: "a.dat", Size: 2*chunk + 100},
		{Name: "b.dat", Size: chunk},
		{Name: "empty.dat", Size: 0}, // owes nothing
	}
	var total int64
	sums := make([]uint32, len(files))
	for i, f := range files {
		total += f.Size
		content := make([]byte, f.Size)
		fsim.FillContent(f.Name, 0, content)
		sums[i] = wire.PayloadCRC(content)
	}
	for _, tc := range []struct {
		name string
		// lastSum is sent as b.dat's sum, after a.dat's correct one; a
		// negative value closes the control channel instead.
		lastSum int64
		ok      bool
		want    string // in a failed session's error
	}{
		{"done after last owed sum", int64(sums[1]), true, ""},
		{"wrong sum", int64(sums[1] ^ 1), false, "end-to-end CRC mismatch"},
		{"control closes with a sum owed", -1, false, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.ProbeInterval = 10 * time.Millisecond
			dst := fsim.NewSyntheticStore()
			recv := NewReceiver(cfg, dst)
			results := make(chan SessionResult, 1)
			recv.OnSessionDone = func(r SessionResult) { results <- r }
			if err := recv.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			go recv.Serve(ctx)

			const session = "owed-sums"
			c := helloConn(t, recv.Addr(), wire.Hello{
				Files: files, ChunkBytes: chunk, ProtoVersion: wire.ProtoVersion,
				SessionID: session,
			})
			defer c.Close()
			welcome := recvReply(t, c).Welcome
			if welcome == nil {
				t.Fatal("session rejected")
			}
			data, err := net.Dial("tcp", recv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer data.Close()
			if err := wire.WriteDataPreamble(data, welcome.DataToken); err != nil {
				t.Fatal(err)
			}
			for id, f := range files {
				for off := int64(0); off < f.Size; off += chunk {
					p := make([]byte, min(chunk, f.Size-off))
					fsim.FillContent(f.Name, off, p)
					if err := new(wire.FrameWriter).Write(data, wire.Frame{FileID: uint32(id), Offset: off, Data: p}); err != nil {
						t.Fatal(err)
					}
				}
			}
			// status reads the next Status; no Error is expected before
			// the verdict.
			status := func() *wire.Status {
				t.Helper()
				for {
					m, err := c.Recv()
					if err != nil {
						t.Fatalf("control channel died before the verdict: %v", err)
					}
					if m.Status != nil {
						return m.Status
					}
				}
			}
			for st := status(); st.CommittedBytes < total; st = status() {
				if st.Done || st.Error != "" {
					t.Fatalf("session ended before its sums arrived: %+v", st)
				}
			}
			if err := c.Send(wire.Message{FileSum: &wire.FileSum{FileID: 0, CRC: sums[0]}}); err != nil {
				t.Fatal(err)
			}
			// With every chunk committed and a.dat verified, b.dat's sum
			// is still owed: the session must keep reporting progress.
			for i := 0; i < 2; i++ {
				if st := status(); st.Done || st.Error != "" {
					t.Fatalf("session ended with a sum still owed: %+v", st)
				}
			}

			if tc.lastSum < 0 {
				c.Close()
			} else {
				sent := time.Now()
				if err := c.Send(wire.Message{FileSum: &wire.FileSum{FileID: 1, CRC: uint32(tc.lastSum)}}); err != nil {
					t.Fatal(err)
				}
				st := status()
				for !st.Done && st.Error == "" {
					st = status()
				}
				if wait := time.Since(sent); wait > time.Second {
					t.Fatalf("verdict %v after the last owed sum, want it right after", wait)
				}
				if tc.ok && (!st.Done || st.CommittedBytes != total) {
					t.Fatalf("final status %+v, want Done with %d bytes committed", st, total)
				}
				if !tc.ok && !strings.Contains(st.Error, tc.want) {
					t.Fatalf("final status %+v, want an error saying %q", st, tc.want)
				}
			}

			var r SessionResult
			select {
			case r = <-results:
			case <-ctx.Done():
				t.Fatal("no session result")
			}
			_, lerr := dst.LoadLedger(session)
			if tc.ok {
				if r.Err != nil || lerr == nil {
					t.Fatalf("completed session: err %v, ledger load %v; want no error and the ledger removed", r.Err, lerr)
				}
				return
			}
			if r.Err == nil || !strings.Contains(r.Err.Error(), tc.want) {
				t.Fatalf("session error %v, want one saying %q", r.Err, tc.want)
			}
			if lerr != nil {
				t.Fatalf("failed session's ledger was not kept: %v", lerr)
			}
		})
	}
}
