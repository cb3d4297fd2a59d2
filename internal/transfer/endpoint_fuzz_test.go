package transfer

import (
	"bytes"
	"context"
	"encoding/gob"
	"net"
	"runtime"
	"testing"
	"time"

	"automdt/internal/fsim"
	"automdt/internal/wire"
)

// FuzzEndpointFirstBytes opens a fresh connection to a live endpoint,
// writes any bytes, ends its side and reads until the endpoint closes.
// The connection must be classified exactly one way by its first byte:
// data for the preamble magic's 0xAD, control for a message tag, closed
// for anything else and for no byte at all. A connection of neither
// kind must leave no session, no rejection and no goroutine behind.
func FuzzEndpointFirstBytes(f *testing.F) {
	var pre bytes.Buffer
	if err := wire.WriteDataPreamble(&pre, wire.NewDataToken()); err != nil {
		f.Fatal(err)
	}
	f.Add(pre.Bytes())
	var hello bufferConn
	if err := wire.NewConn(&hello).Send(wire.Message{Hello: &wire.Hello{
		Files:        []wire.FileInfo{{Name: "fz.dat", Size: 64 << 10}},
		ChunkBytes:   64 << 10,
		ProtoVersion: wire.ProtoVersion,
	}}); err != nil {
		f.Fatal(err)
	}
	f.Add(hello.Bytes())
	var v4 bytes.Buffer
	if err := gob.NewEncoder(&v4).Encode(&wire.Message{Hello: &wire.Hello{
		Files: []wire.FileInfo{{Name: "fz.dat", Size: 64 << 10}}, ChunkBytes: 64 << 10, ProtoVersion: 4,
	}}); err != nil {
		f.Fatal(err)
	}
	f.Add(v4.Bytes())
	f.Add([]byte{})
	for _, b := range []byte{0x7F, 0x80, 0xAC, 0xAD, 0xAE, 0xC0, 0xC1, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xF8} {
		f.Add([]byte{b})
	}

	recv := NewReceiver(testConfig(), fsim.NewSyntheticStore())
	recv.busyWait = 50 * time.Millisecond // a fuzzed retry Hello must not stall the run
	if err := recv.Listen("127.0.0.1:0"); err != nil {
		f.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.Cleanup(cancel)
	go recv.Serve(ctx)

	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 4<<10)]
		counts := func() (ctrl, dat, admitted, rejected float64) {
			snap := recv.MetricsSnapshot()
			return gauge(t, snap, "automdt_endpoint_conns_accepted_total", "control"),
				gauge(t, snap, "automdt_endpoint_conns_accepted_total", "data"),
				gauge(t, snap, "automdt_endpoint_sessions_total", "admitted"),
				gauge(t, snap, "automdt_endpoint_sessions_total", "rejected")
		}
		ctrl0, data0, admitted0, rejected0 := counts()
		idle := runtime.NumGoroutine()

		conn, err := net.Dial("tcp", recv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.Write(data) // the endpoint may close before taking it all
		conn.(*net.TCPConn).CloseWrite()
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		var sink [4 << 10]byte
		for {
			if _, err := conn.Read(sink[:]); err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					t.Fatalf("the endpoint kept % x open for 10 s after its sender ended", data[:min(len(data), 32)])
				}
				break
			}
		}

		wantCtrl, wantData := 0.0, 0.0
		switch {
		case len(data) == 0:
		case data[0] == wire.PreambleMagic[0]:
			wantData = 1
		case data[0] >= 0xC1 && data[0] <= 0xC7:
			wantCtrl = 1
		}
		ctrl1, data1, admitted1, rejected1 := counts()
		if ctrl1-ctrl0 != wantCtrl || data1-data0 != wantData {
			t.Fatalf("first bytes % x counted %v control and %v data connections, want %v and %v",
				data[:min(len(data), 8)], ctrl1-ctrl0, data1-data0, wantCtrl, wantData)
		}
		if err := recv.Err(); err != nil {
			t.Fatalf("the endpoint failed: %v", err)
		}
		if wantCtrl+wantData > 0 {
			return
		}
		if admitted1 != admitted0 || rejected1 != rejected0 {
			t.Fatalf("first bytes % x, of neither kind, moved admitted %v→%v and rejected %v→%v",
				data[:min(len(data), 8)], admitted0, admitted1, rejected0, rejected1)
		}
		for i := 0; runtime.NumGoroutine() > idle; i++ {
			if i == 500 {
				t.Fatalf("first bytes % x, of neither kind: %d goroutines after the close, %d before",
					data[:min(len(data), 8)], runtime.NumGoroutine(), idle)
			}
			time.Sleep(2 * time.Millisecond)
		}
	})
}
