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
// LedgerStore is the one contract of a resumable destination, and both
// implementations meet it in full: a Store that also reports file sizes
// (Stater), so a resume can detect a vanished or truncated destination;
// persists each session's chunk ledger as a snapshot plus an fsync'd
// append-only journal (LedgerAppender), so a probe tick persists only
// the delta since the last one (DirStore keeps each session's state in
// its own <root>/.automdt/<session>/ directory); and enumerates
// persisted ledgers with ages (LedgerLister), so a long-lived endpoint
// can expire sessions that were abandoned rather than resumed. A store
// that lacks any part of it is a plain Store whose sessions run one-shot.
// Session names are constrained by ValidSessionID so they are safe as
// keys on any backend.
package fsim
