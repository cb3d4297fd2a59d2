// Package fsim provides the storage substrate for the transfer engine:
// offset-addressable file stores with deterministic synthetic content
// (so terabyte-shaped datasets need no disk) and adapters over real
// directories. Stores hand out per-open readers/writers; rate shaping is
// applied by the engine, which owns the per-thread and aggregate
// limiters.
//
// The two implementations are SyntheticStore (content derived from
// (file name, offset) — nothing stored, optional write verification)
// and DirStore (real files under a root directory, pre-sized so
// concurrent WriteAt calls cannot race on extension). On Linux,
// DirStore opens files with openat relative to one descriptor held for
// its root and hands out bare descriptors (dirstore_linux.go); other
// platforms open by full path into an *os.File (dirstore_other.go).
//
// Optional capabilities extend the base Store interface for the
// resumable-session control plane: Stater reports file sizes so a
// resume can detect a vanished or truncated destination; LedgerStore
// persists per-session chunk ledgers (DirStore keeps each session's
// state in its own <root>/.automdt/<session>/ directory — a binary
// snapshot plus journal); LedgerAppender adds the fsync'd append-only
// journal so a probe tick persists only the delta since the last one;
// LedgerLister enumerates persisted ledgers with ages so a long-lived
// endpoint can expire sessions that were abandoned rather than resumed.
// Session names are constrained by ValidSessionID so they are safe as
// keys on any backend.
package fsim
