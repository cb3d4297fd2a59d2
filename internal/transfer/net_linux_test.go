package transfer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"automdt/internal/fsim"
	"automdt/internal/wire"
	"automdt/internal/workload"
)

// writeSyscalls returns the process's write-family syscall count.
func writeSyscalls(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no /proc/self/io: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		var n int64
		if _, err := fmt.Sscanf(line, "syscw: %d", &n); err == nil {
			return n
		}
	}
	t.Skip("no syscw in /proc/self/io")
	return 0
}

// A frame batch written to a watched data connection is one writev, as
// it is on the bare socket: wrapping the socket behind a net.Conn
// interface would cost a write per header and per payload.
func TestDataSockKeepsVectoredWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(io.Discard, c)
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sock := watchData(raw.(*net.TCPConn), nil)
	frames := []wire.Frame{{FileID: 1, Data: make([]byte, 4<<10)}, {FileID: 2, Data: make([]byte, 4<<10)}}
	var fw wire.FrameWriter
	const batches = 200
	before := writeSyscalls(t)
	for i := 0; i < batches; i++ {
		if err := fw.WriteBatch(sock, frames); err != nil {
			t.Fatal(err)
		}
	}
	writes := writeSyscalls(t) - before
	sock.Close()
	<-drained
	// Four buffers a batch: 800 writes without writev. The slack is for
	// the rest of the process.
	if writes > batches+batches/4 {
		t.Fatalf("%d batches of two frames took %d write syscalls, want about one each", batches, writes)
	}
}

// A dial to an endpoint that never completes the handshake — a listener
// whose accept queue is full drops the SYN, and the kernel retries it for
// minutes — ends when the run's context does.
func TestSenderDialHonorsCancel(t *testing.T) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fd)
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	// Take the queue's slots: the dial that times out found it full.
	full := false
	for i := 0; i < 8 && !full; i++ {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			full = true
			break
		}
		defer c.Close()
	}
	if !full {
		t.Skip("the accept queue never filled")
	}

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	send := &Sender{Cfg: testConfig(), Store: fsim.NewSyntheticStore(), Manifest: workload.LargeFiles(1, 64<<10)}
	start := time.Now()
	_, err = send.Run(ctx, addr, addr)
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Run took %v to notice the cancellation", took)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error %v, want context.Canceled", err)
	}
}
