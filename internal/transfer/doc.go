// Package transfer implements the modular data transfer engine of
// AutoMDT (§III): independent, dynamically resizable worker pools for
// the read, network, and write stages, connected through bounded
// in-memory staging buffers (the application-level /dev/shm analogue)
// and real TCP data connections. A pluggable env.Controller reassigns
// the concurrency tuple every probe interval, which is how the PPO
// agent, the Marlin baseline, and the static baseline all drive the same
// engine.
//
// The two engine halves are Sender (source side: read pool → staging →
// network pool) and Receiver (destination side: demux → per-session
// staging → write pool). A Receiver is a multi-session endpoint: one
// listener, whose connections each say by their first byte whether they
// carry data or control, serves many concurrent sessions, demultiplexed
// by the token in each data connection's wire-protocol preamble, with a per-endpoint admission cap (Config.MaxSessions) and
// fully isolated per-session teardown. Loopback wires both halves
// together in-process for tests, benchmarks, and examples.
//
// Chunk buffers come from a size-classed, reference-counted Arena — the
// single allocation point of the hot path — and ride from stage to stage
// by ownership transfer, so steady-state transfers make zero per-chunk
// allocations.
//
// Sessions are resumable: each keeps a chunk Ledger (per-file committed
// bitmaps plus per-chunk CRC-32C sums) that the destination store
// persists via fsim.LedgerStore, advertises on the Welcome handshake,
// and re-verifies by read-back before trusting after a restart.
// Persistence is incremental: a probe tick appends only the chunk
// commits and invalidations since the last tick to an fsync'd
// append-only journal (O(delta) per tick), periodically compacted into
// a fresh binary snapshot. Stale ledgers are expired by age when an
// endpoint starts serving (Config.LedgerTTL).
//
// See docs/ARCHITECTURE.md for the subsystem map and data-path diagram,
// and docs/PROTOCOL.md for the wire formats and the ledger schema.
package transfer
