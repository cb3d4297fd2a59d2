package metrics

import "sync/atomic"

// Process-wide resumable-session counters. The receiver engine is the
// authority on what was skipped or replayed, so it increments these; the
// scheduler daemon merges ResumeSnapshot into its /metrics page.
var (
	resumeSessions    atomic.Int64 // sessions that resumed a prior ledger
	resumeSkipped     atomic.Int64 // bytes found committed and not re-sent
	resumeReplayed    atomic.Int64 // chunk ranges re-sent after verification cleared them
	resumeInvalidated atomic.Int64 // ledger ranges invalidated by CRC mismatch
	resumeExpired     atomic.Int64 // stale ledgers removed by age-based GC
)

// ResumeSessionInc records one session resumed from a persisted ledger.
func ResumeSessionInc() { resumeSessions.Add(1) }

// ResumeSkippedAdd records payload bytes a resume skipped (already
// committed, not re-sent).
func ResumeSkippedAdd(n int64) { resumeSkipped.Add(n) }

// ResumeReplayedAdd records chunk ranges that were committed in a prior
// attempt but failed read-back verification and will cross the wire
// again.
func ResumeReplayedAdd(ranges int64) { resumeReplayed.Add(ranges) }

// ResumeInvalidatedAdd records ledger ranges invalidated because the
// end-to-end file CRC disagreed with the sender's.
func ResumeInvalidatedAdd(ranges int64) { resumeInvalidated.Add(ranges) }

// ResumeExpiredAdd records session ledgers removed by the receiver's
// age-based GC: sessions that were abandoned in a long-lived destination
// instead of being resumed or completed.
func ResumeExpiredAdd(n int64) { resumeExpired.Add(n) }

// ResumeSnapshot exports the resume counters in the shared text format.
func ResumeSnapshot() Snapshot {
	var snap Snapshot
	snap.Add("automdt_resume_sessions_total", float64(resumeSessions.Load()))
	snap.Add("automdt_resume_bytes_skipped_total", float64(resumeSkipped.Load()))
	snap.Add("automdt_resume_ranges_replayed_total", float64(resumeReplayed.Load()))
	snap.Add("automdt_resume_ranges_invalidated_total", float64(resumeInvalidated.Load()))
	snap.Add("automdt_resume_ledgers_expired_total", float64(resumeExpired.Load()))
	return snap
}
