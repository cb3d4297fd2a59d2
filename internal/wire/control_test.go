package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// sampleMessages returns one message of each of the seven types, in tag
// order, with every field set to a value that is not its zero value.
func sampleMessages() []Message {
	ledger := []FileState{
		{FileID: 3, CommittedBytes: 192 << 10, Bitmap: []uint64{0b1011, 1 << 63}},
		{FileID: 1 << 30, CommittedBytes: -1, Bitmap: []uint64{^uint64(0)}},
	}
	return []Message{
		{Hello: &Hello{
			Files:            []FileInfo{{Name: "a/x.dat", Size: 1 << 20}, {Name: "é", Size: -7}},
			ChunkBytes:       64 << 10,
			InitialWriters:   8,
			ReceiverBufBytes: 1 << 40,
			ProtoVersion:     ProtoVersion,
			SessionID:        "sess-1",
		}},
		{Welcome: &Welcome{
			ProtoVersion: ProtoVersion,
			SessionID:    "sess-1",
			ChunkBytes:   64 << 10,
			Ledger:       ledger,
			DataToken:    "00112233445566778899aabbccddeeff",
		}},
		{SetWriters: &SetWriters{N: -5}},
		{FileSum: &FileSum{FileID: 1<<32 - 2, CRC: 0xDEADBEEF}},
		{Status: &Status{
			BufFree:        4 << 20,
			WriteMbps:      812.375,
			Writers:        12,
			Done:           true,
			CommittedBytes: 1<<62 + 1,
			Error:          "transfer: disk full",
		}},
		{LedgerPull: &LedgerPull{Seq: 1<<64 - 1}},
		{LedgerState: &LedgerState{Seq: 9, Ledger: ledger}},
	}
}

// requireAllSet fails when any field reachable from v, through pointers,
// structs and slice elements, holds its zero value — so a field added to
// a message without a sample value fails the tests that use it.
func requireAllSet(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	if v.IsZero() {
		t.Fatalf("sample leaves %s at its zero value", path)
	}
	switch v.Kind() {
	case reflect.Pointer:
		requireAllSet(t, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			requireAllSet(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			requireAllSet(t, path+"[]", v.Index(i))
		}
	}
}

// exchange sends msgs over an in-memory pipe and requires every field of
// every received message to equal what was sent.
func exchange(t *testing.T, msgs []Message) {
	t.Helper()
	a, b := pipePair(t)
	for _, m := range msgs {
		for i := 0; i < reflect.TypeOf(m).NumField(); i++ {
			if f := reflect.ValueOf(m).Field(i); !f.IsNil() {
				requireAllSet(t, reflect.TypeOf(m).Field(i).Name, f)
			}
		}
	}
	errs := make(chan error, 1)
	go func() {
		for _, m := range msgs {
			if err := a.Send(m); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	for i, want := range msgs {
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d:\n got %s\nwant %s", i, dump(got), dump(want))
		}
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

func dump(m Message) string {
	v := reflect.ValueOf(m)
	var s []string
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); !f.IsNil() {
			s = append(s, fmt.Sprintf("%s%+v", v.Type().Field(i).Name, f.Elem().Interface()))
		}
	}
	return "{" + strings.Join(s, " ") + "}"
}

// The channel's three per-session messages — the handshake pair and the
// end-to-end file sum — arrive with every field intact.
func TestControlChannelSessionMessages(t *testing.T) {
	all := sampleMessages()
	exchange(t, []Message{all[0], all[1], all[3]})
}

// The messages of a running session — writer commands, status reports
// (a fractional WriteMbps, a verdict, an error), and the ledger pull
// with its bitmap reply — arrive with every field intact.
func TestControlChannelMessages(t *testing.T) {
	all := sampleMessages()
	exchange(t, []Message{all[2], all[4], all[5], all[6]})
}

// countingRWC is an io.ReadWriteCloser that records each Write and reads
// from a fixed input.
type countingRWC struct {
	in     io.Reader
	writes int
	out    bytes.Buffer
}

func (c *countingRWC) Read(p []byte) (int, error) {
	if c.in == nil {
		return 0, io.EOF
	}
	return c.in.Read(p)
}

func (c *countingRWC) Write(p []byte) (int, error) {
	c.writes++
	return c.out.Write(p)
}

func (c *countingRWC) Close() error { return nil }

// Every message is exactly one Write on the underlying connection, the
// first message of a fresh connection included, and decodes back.
func TestControlSendIsOneWrite(t *testing.T) {
	for _, m := range sampleMessages() {
		rwc := &countingRWC{}
		if err := NewConn(rwc).Send(m); err != nil {
			t.Fatal(err)
		}
		if rwc.writes != 1 {
			t.Fatalf("%s: %d writes, want 1", dump(m), rwc.writes)
		}
		got, err := NewConn(&countingRWC{in: &rwc.out}).Recv()
		if err != nil || !reflect.DeepEqual(got, m) {
			t.Fatalf("%s: decoded %s, err %v", dump(m), dump(got), err)
		}
	}
}

// A Status — the message every probe tick sends — costs no allocation to
// send once the connection is warm, and one (the *Status) to receive.
func TestControlStatusAllocs(t *testing.T) {
	m := Message{Status: &Status{BufFree: 1 << 20, WriteMbps: 950.5, Writers: 4, CommittedBytes: 1 << 30}}
	send := NewConn(&countingRWC{})
	send.Send(m)
	if a := testing.AllocsPerRun(100, func() { send.Send(m) }); a != 0 {
		t.Fatalf("Send(Status) allocates %v times, want 0", a)
	}

	enc, _ := appendMessage(nil, m)
	recv := NewConn(&countingRWC{in: bytes.NewReader(bytes.Repeat(enc, 102))})
	recv.Recv()
	if a := testing.AllocsPerRun(100, func() {
		if _, err := recv.Recv(); err != nil {
			t.Fatal(err)
		}
	}); a > 1 {
		t.Fatalf("Recv of a Status allocates %v times, want at most 1", a)
	}
}

// recvBytes reads one message from raw bytes.
func recvBytes(raw []byte) (Message, error) {
	return NewConn(&countingRWC{in: bytes.NewReader(raw)}).Recv()
}

// Recv refuses malformed input with an error, not a panic or a partial
// message: an unknown tag, a length above MaxControlBytes or overlong,
// a body cut short, a field past the body, a count larger than the
// bytes left, a non-canonical value, and trailing bytes.
func TestControlRecvRefusesMalformed(t *testing.T) {
	status, _ := appendMessage(nil, sampleMessages()[4])
	hello, _ := appendMessage(nil, Message{Hello: &Hello{ProtoVersion: ProtoVersion}})
	rows := []struct {
		name string
		raw  []byte
		want string
	}{
		{"unknown tag", []byte{0x42, 0}, "unknown control message tag"},
		{"tag below the range", []byte{tagHello - 1, 0}, "unknown control message tag"},
		{"tag above the range", []byte{tagLedgerState + 1, 0}, "unknown control message tag"},
		{"length above the cap", []byte{tagHello, 0x81, 0x80, 0x80, 0x20}, "length above"},
		{"length of five bytes", []byte{tagHello, 0x80, 0x80, 0x80, 0x80, 0x01}, "length above"},
		{"overlong length", []byte{tagStatus, 0x81, 0x00}, "overlong"},
		{"header only", []byte{tagStatus}, io.ErrUnexpectedEOF.Error()},
		{"body cut short", status[:len(status)-1], io.ErrUnexpectedEOF.Error()},
		{"field past the body", []byte{tagLedgerPull, 1, 0x80}, "malformed"},
		{"empty SetWriters body", []byte{tagSetWriters, 0}, "malformed"},
		{"bool above 1", []byte{tagStatus, 13, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0}, "malformed"},
		{"non-canonical uvarint", []byte{tagLedgerPull, 2, 0x80, 0x00}, "malformed"},
		{"FileID above uint32", []byte{tagFileSum, 9, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0, 0, 0}, "malformed"},
		{"file count above the bytes left", append(bytes.Clone(hello[:len(hello)-1]), 0x7f), "malformed"},
		{"trailing bytes", []byte{tagLedgerPull, 2, 1, 1}, "trailing"},
	}
	for _, row := range rows {
		m, err := recvBytes(row.raw)
		if err == nil || !strings.Contains(err.Error(), row.want) {
			t.Fatalf("%s: Recv = %s, %v; want an error containing %q", row.name, dump(m), err, row.want)
		}
		if !reflect.DeepEqual(m, Message{}) {
			t.Fatalf("%s: a refused input returned %s", row.name, dump(m))
		}
	}
	if _, err := recvBytes(nil); err != io.EOF {
		t.Fatalf("an empty stream gives %v, want io.EOF", err)
	}
	if _, err := recvBytes(bytes.Clone(status)); err != nil {
		t.Fatalf("the unmodified Status fails: %v", err)
	}
}

// A handshake of another generation decodes to its version alone, so
// the peer gets the version refusal whatever the generation laid out
// after it: here a protocol-6 Hello, whose checksums flag sits between
// the buffer size and the manifest, and a Welcome announcing the next
// generation with a body this one cannot parse.
func TestControlForeignHandshakeDecodesVersionOnly(t *testing.T) {
	v6 := binary.AppendVarint(nil, 6)
	v6 = appendString(v6, "sess")
	v6 = binary.AppendVarint(v6, 64<<10) // chunk bytes
	v6 = binary.AppendVarint(v6, 4)      // initial writers
	v6 = binary.AppendVarint(v6, 1<<20)  // receiver buffer bytes
	v6 = appendBool(v6, true)            // checksums
	v6 = binary.AppendUvarint(v6, 1)
	v6 = appendString(v6, "a.dat")
	v6 = binary.AppendVarint(v6, 1<<20)
	next := append(binary.AppendVarint(nil, ProtoVersion+1), 0xff, 0xff)
	for _, row := range []struct {
		tag  byte
		body []byte
		want Message
	}{
		{tagHello, v6, Message{Hello: &Hello{ProtoVersion: 6}}},
		{tagWelcome, next, Message{Welcome: &Welcome{ProtoVersion: ProtoVersion + 1}}},
	} {
		raw := append(binary.AppendUvarint([]byte{row.tag}, uint64(len(row.body))), row.body...)
		m, err := recvBytes(raw)
		if err != nil || !reflect.DeepEqual(m, row.want) {
			t.Fatalf("tag %#x: Recv = %s, %v; want %s", row.tag, dump(m), err, dump(row.want))
		}
	}
	// The current generation is still held to its exact layout.
	cur := append(binary.AppendVarint(nil, ProtoVersion), v6[1:]...)
	raw := append(binary.AppendUvarint([]byte{tagHello}, uint64(len(cur))), cur...)
	if m, err := recvBytes(raw); err == nil {
		t.Fatalf("a protocol-6 layout under version %d decoded: %s", ProtoVersion, dump(m))
	}
}

// A header announcing a body just under the cap, then EOF, allocates
// nothing near the announced size: the body buffer grows only as bytes
// arrive.
func TestControlRecvAnnouncedLengthPinsNothing(t *testing.T) {
	raw := []byte{tagHello}
	raw = binary.AppendUvarint(raw, MaxControlBytes-1)
	raw = append(raw, make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := recvBytes(raw)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Recv = %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a %d-byte header announcing %d bytes allocated %d bytes", len(raw), MaxControlBytes-1, grew)
	}
}

// A Send of a message carrying no message, or two, is refused before
// anything is written.
func TestControlSendRefusesBadEnvelope(t *testing.T) {
	for _, m := range []Message{{}, {SetWriters: &SetWriters{N: 1}, LedgerPull: &LedgerPull{Seq: 1}}} {
		rwc := &countingRWC{}
		if err := NewConn(rwc).Send(m); err == nil || rwc.writes != 0 {
			t.Fatalf("%s: err %v after %d writes, want an error and no write", dump(m), err, rwc.writes)
		}
	}
}
