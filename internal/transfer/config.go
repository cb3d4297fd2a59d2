package transfer

import (
	"net"
	"sync"
	"time"

	"automdt/internal/env"
	"automdt/internal/rate"
)

// Shaping configures the emulated testbed's rate caps in Mbps. Zero
// values mean unshaped. Per-thread caps emulate the paper's per-TCP-stream
// throttles (§V-B-1); aggregate caps emulate link and storage bandwidth.
// The aggregate caps are per session: Sender.Run builds the ReadAggMbps
// and LinkMbps buckets per run and each receiver session builds its own
// WriteAggMbps bucket, so concurrent sessions do not share them.
type Shaping struct {
	ReadPerThreadMbps  float64
	NetPerStreamMbps   float64
	WritePerThreadMbps float64
	ReadAggMbps        float64
	LinkMbps           float64
	WriteAggMbps       float64
}

// Hooks observe one transfer's lifecycle. All callbacks are optional and
// are invoked synchronously from the sender's control loop, so they must
// be fast and must not call back into the engine. The scheduler
// (internal/sched) uses them to track per-job progress and to feed the
// budget arbiter live state.
type Hooks struct {
	// OnStart runs once when Sender.Run begins, before any connection is
	// made.
	OnStart func()
	// OnSession runs once after the control handshake with the
	// negotiated session: its identity and how much of the dataset the
	// receiver's ledger already covers.
	OnSession func(Session)
	// OnTick runs every probe interval with the freshly observed state
	// (thread counts, per-stage throughputs, free buffer space).
	OnTick func(State)
	// OnProgress runs every probe interval with the receiver-reported
	// committed byte count (including ranges inherited by a resume) and
	// the dataset total.
	OnProgress func(committed, total int64)
	// OnDataConn runs after each striped data connection is dialed and
	// preambled, with its slot index and the live socket. Failure tests
	// use it to kill one connection of a striped transfer mid-flight.
	OnDataConn func(index int, conn net.Conn)
}

// Session describes a negotiated transfer session, delivered to
// Hooks.OnSession right after the control handshake.
type Session struct {
	// ID is the session identity (the ledger key at the receiver).
	ID string
	// Resumed reports whether the receiver advertised committed ranges
	// from a previous attempt.
	Resumed bool
	// TotalBytes is the dataset size.
	TotalBytes int64
	// SkippedBytes is the committed volume the sender will not re-read
	// or re-send.
	SkippedBytes int64
}

// State re-exports env.State so hook signatures don't force callers to
// import internal/env separately.
type State = env.State

// Config parameterizes both ends of the transfer engine.
type Config struct {
	// ChunkBytes is the pipeline chunk size. Default 256 KiB.
	ChunkBytes int
	// SenderBufBytes and ReceiverBufBytes are the staging capacities.
	// Default 64 MiB each.
	SenderBufBytes   int64
	ReceiverBufBytes int64
	// MaxThreads bounds each stage's pool. Default 32.
	MaxThreads int
	// ProbeInterval is the control/metrics tick. Default 250 ms.
	ProbeInterval time.Duration
	// InitialThreads is the starting concurrency for all stages.
	// Default 1.
	InitialThreads int
	// Conns is the starting number of parallel data connections the
	// sender stripes its chunks across (the controller's conns dimension;
	// each connection carries InitialThreads network streams at start). A
	// controller resizes it every probe interval like the thread pools.
	// Default 1.
	Conns int
	// SessionID names a resumable session. When set, the receiver
	// persists a chunk ledger through the destination store (if it
	// implements fsim.LedgerStore) and a later run with the same ID and
	// manifest resumes where the interrupted one stopped. Empty means a
	// one-shot transfer. The scheduler assigns one per job so retries
	// resume instead of restarting.
	SessionID string
	// MaxSessions is the receiver endpoint's admission cap: how many
	// transfer sessions one Receiver serves concurrently. Sessions beyond
	// the cap are rejected at the handshake with a clear error instead of
	// being queued. Default 64.
	MaxSessions int
	// LedgerCompactBytes is the receiver's journal-compaction floor: a
	// session's append-only ledger journal is folded into a fresh binary
	// snapshot once it outgrows max(LedgerCompactBytes, last snapshot
	// size), bounding both resume replay time and steady-state write
	// amplification (≈2×). Zero means the 1 MiB default; negative
	// disables size-triggered compaction (the journal still folds at
	// session start).
	LedgerCompactBytes int64
	// LedgerTTL is the receiver's stale-session GC horizon: ledgers whose
	// last write is older than this are removed when the endpoint starts
	// serving (counted in automdt_resume_ledgers_expired_total), so
	// long-lived destination directories don't accumulate the control
	// state of sessions that were abandoned rather than resumed. Zero
	// means the 30-day default; negative disables expiry.
	LedgerTTL time.Duration
	// Shaping holds the emulated rate caps.
	Shaping Shaping
	// WriteBudgetMbps is the receiver endpoint's arbitrated write-stage
	// budget: when positive, the endpoint splits this many Mbps max-min
	// fair (equal shares, rebalanced on every session join/leave) across
	// its active sessions, so one greedy high-thread session cannot
	// starve siblings on the shared destination disks. Zero leaves the
	// write stage unarbitrated. It is the only write cap that spans an
	// endpoint's sessions: Shaping.WriteAggMbps caps each session on its
	// own.
	WriteBudgetMbps float64
	// Hooks observe the transfer lifecycle (job-scoped; optional).
	Hooks Hooks
	// WrapConn, when set, wraps every connection the sender dials —
	// kind "ctrl" for the control channel, "data" for each striped data
	// connection (wrapped before the preamble, so the whole stream is
	// covered). It is the fault-injection seam the chaos harness shapes,
	// kills, and partitions through; returning the conn unchanged is
	// always safe.
	WrapConn func(kind string, c net.Conn) net.Conn
	// Arena supplies the chunk buffers for both engine ends. nil uses the
	// process-wide Default() arena, which is what lets back-to-back
	// transfers (and the scheduler's job churn) run allocation-free after
	// warmup. Inject a dedicated arena to isolate a transfer's memory.
	Arena *Arena
}

// arena resolves the configured arena, falling back to the process-wide
// default.
func (c Config) arena() *Arena {
	if c.Arena != nil {
		return c.Arena
	}
	return Default()
}

// WithDefaults returns cfg with zero fields replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 256 << 10
	}
	if c.SenderBufBytes <= 0 {
		c.SenderBufBytes = 64 << 20
	}
	if c.ReceiverBufBytes <= 0 {
		c.ReceiverBufBytes = 64 << 20
	}
	if c.MaxThreads <= 0 {
		c.MaxThreads = 32
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.InitialThreads <= 0 {
		c.InitialThreads = 1
	}
	if c.Conns <= 0 {
		c.Conns = 1
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.LedgerTTL == 0 {
		c.LedgerTTL = 30 * 24 * time.Hour
	}
	if c.LedgerCompactBytes == 0 {
		c.LedgerCompactBytes = 1 << 20
	}
	return c
}

// mbpsToBytesPerSec converts a Mbps figure to bytes per second.
func mbpsToBytesPerSec(mbps float64) float64 { return mbps * 1e6 / 8 }

// bytesToMb converts a byte count to megabits.
func bytesToMb(b int64) float64 { return float64(b) * 8 / 1e6 }

// newLimiter builds a token bucket for a Mbps cap with a burst of 20 ms
// worth of tokens (or one chunk, whichever is larger) so rate shaping
// stays tight even on short transfers. A zero cap yields an unlimited
// limiter.
func newLimiter(mbps float64, chunkBytes int) *rate.Limiter {
	if mbps <= 0 {
		return rate.Unlimited()
	}
	bps := mbpsToBytesPerSec(mbps)
	burst := bps * 0.02
	if burst < float64(chunkBytes) {
		burst = float64(chunkBytes)
	}
	return rate.NewLimiter(bps, burst)
}

// limiterSet lazily creates per-slot limiters sharing one Mbps cap. Safe
// for concurrent use.
type limiterSet struct {
	mbps  float64
	chunk int

	mu   sync.Mutex
	lims []*rate.Limiter
}

func newLimiterSet(mbps float64, chunk int) *limiterSet {
	return &limiterSet{mbps: mbps, chunk: chunk}
}

// get returns the limiter for slot id, creating limiters up to id on
// first use.
func (s *limiterSet) get(id int) *rate.Limiter {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.lims) <= id {
		s.lims = append(s.lims, newLimiter(s.mbps, s.chunk))
	}
	return s.lims[id]
}
