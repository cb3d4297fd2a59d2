// Package wire defines the on-the-wire protocol between the sender and
// receiver DTN processes: a binary chunk framing for the parallel data
// connections, and a control channel (the "RPC channel" of §IV-D-1)
// carrying the session handshake, the receiver's staging-buffer
// occupancy reports, and the sender's write-concurrency commands. Each
// control message is a tag byte, a uvarint body length and explicit
// fields; Cursor is the one bounds-checked decoder behind it and behind
// the persisted ledger in internal/transfer.
//
// There is one protocol generation (ProtoVersion): Hello → Welcome with
// the receiver's chunk ledger and a DataToken → data connections that
// open with a fixed preamble echoing the token → LedgerPull when a data
// connection is lost. Either end refuses a peer that announces another
// version.
//
// The control channel is one ordered TCP stream, and that order settles
// how a session ends: the receiver's last message is a Status carrying
// Done or an Error, so a reply to a LedgerPull proves no verdict was
// queued ahead of it, and a channel that closes with neither fails the
// session. No timer stands in for a message.
//
// Data frames are length-prefixed chunks, each carrying the CRC-32C of
// its payload, which every read verifies; FrameReader and FrameWriter are the allocation-free hot
// path (vectored header+payload writes, persistent header scratch). The
// crc.go file supplies the GF(2) CRC combine used to fold per-chunk sums
// into whole-file checksums without a second pass over the data.
//
// docs/PROTOCOL.md specifies every message and frame layout in full.
package wire
