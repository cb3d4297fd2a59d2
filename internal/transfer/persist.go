package transfer

import (
	"sync"

	"automdt/internal/fsim"
)

// ledgerPersister owns one session's ledger persistence: journaled
// O(delta) appends on every probe tick when the store implements
// fsim.LedgerAppender, full-snapshot rewrites when it only implements
// fsim.LedgerStore, and compaction — folding the journal into a fresh
// snapshot — once the journal outgrows max(compactBytes, last snapshot
// size), which bounds both replay time and write amplification at
// roughly 2×. All methods serialize on one mutex, so a tick, the
// CRC-mismatch path, and the teardown persist can never interleave
// writes.
//
// Store errors never fail the session (the ledger is an optimization —
// a lost save only costs the next resume some re-sent bytes), but they
// are never silently forgotten either: records drained from the ledger
// stay in carry until some write durably holds them, and a torn journal
// (failed append) forces compaction — retried every tick — before any
// further append, because records landing after a tear are unreachable
// to replay.
type ledgerPersister struct {
	mu      sync.Mutex
	l       *Ledger
	store   fsim.LedgerStore
	app     fsim.LedgerAppender
	session string
	// compactBytes is the journal-growth floor before compaction;
	// negative disables size-triggered compaction entirely.
	compactBytes int64

	// carry holds encoded journal records drained from the ledger that
	// no durable write has covered yet (a failed append or compaction).
	// They are re-attempted, in order, on every tick until a journal
	// append or a snapshot lands.
	carry []byte
	// torn marks a journal whose tail may hold a partial record (an
	// append errored): appending past the tear would be wasted — replay
	// truncates there — so only a fresh snapshot recovers.
	torn bool

	journalLen  int64 // appended since the last successful compaction
	snapshotLen int64 // size of the last snapshot written
	// headerPending marks that the next append must open the journal
	// with the current snapshot generation's header.
	headerPending bool
	done          bool // session completed; never write again
	enabled       bool
}

// newLedgerPersister builds the persister for one session. store is the
// destination store; persistence is disabled (every method a no-op)
// unless it implements fsim.LedgerStore and the session is resumable.
func newLedgerPersister(l *Ledger, store fsim.Store, session string, resumable bool, compactBytes int64) *ledgerPersister {
	p := &ledgerPersister{l: l, session: session, compactBytes: compactBytes}
	if ls, ok := store.(fsim.LedgerStore); ok && resumable {
		p.store = ls
		p.enabled = true
		p.app, _ = store.(fsim.LedgerAppender)
	}
	return p
}

// tick persists the delta since the last call: an fsync'd journal
// append on appender stores (compacting when the journal has outgrown
// its threshold), a full snapshot otherwise. No-change ticks write
// nothing.
func (p *ledgerPersister) tick() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.enabled || p.done {
		return
	}
	p.carry = append(p.carry, p.l.AppendSince()...)
	if len(p.carry) == 0 && !p.torn {
		return
	}
	if p.app == nil || p.torn {
		p.compactLocked()
		return
	}
	recs := p.carry
	if p.headerPending {
		recs = append(p.l.JournalHeader(), recs...)
	}
	if err := p.app.AppendLedger(p.session, recs); err != nil {
		// The journal may now be torn mid-record; carry keeps the
		// drained delta and a fresh snapshot (atomic rename) plus
		// journal reset recovers cleanly. Until one lands, every tick
		// retries compaction rather than appending past the tear.
		p.torn = true
		p.compactLocked()
		return
	}
	p.carry = nil
	p.headerPending = false
	p.journalLen += int64(len(recs))
	threshold := max(p.compactBytes, p.snapshotLen)
	if p.compactBytes >= 0 && p.journalLen > threshold {
		p.compactLocked()
	}
}

// compact writes a fresh snapshot and resets the journal.
func (p *ledgerPersister) compact() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.enabled || p.done {
		return
	}
	p.compactLocked()
}

func (p *ledgerPersister) compactLocked() {
	// Drain before encoding: the snapshot below is taken after the
	// drain, so it covers every drained op's effect (ops landing
	// between drain and encode stay pending and re-journal later —
	// idempotent on replay). On save failure carry keeps the drained
	// records for the next attempt.
	p.carry = append(p.carry, p.l.AppendSince()...)
	data := p.l.EncodeV2()
	if err := p.store.SaveLedger(p.session, data); err != nil {
		// EncodeV2 already rotated the in-memory generation, and — for
		// the opening compaction — no header matching the on-disk
		// snapshot may exist at all, so anything appended now would be
		// unreachable to replay. Treat the journal as torn: ticks keep
		// retrying compaction (carry in hand) until a snapshot lands.
		p.torn = true
		return
	}
	p.snapshotLen = int64(len(data))
	p.carry = nil // folded into the snapshot
	p.torn = false
	if p.app != nil {
		if err := p.app.ResetJournal(p.session); err == nil {
			p.journalLen = 0
		} else {
			// The journal still opens with a dead generation, so any
			// record appended to it is unreachable to replay — exactly
			// the torn condition: keep compacting every tick (the
			// snapshot carries the state) until a reset lands.
			p.torn = true
		}
	}
	p.headerPending = true
}

// markDone flips the persister into its terminal state: the session
// completed and its ledger was removed, and no later tick — the
// teardown defer in particular — may resurrect it.
func (p *ledgerPersister) markDone() {
	p.mu.Lock()
	p.done = true
	p.mu.Unlock()
}
