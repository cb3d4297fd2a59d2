package transfer

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"automdt/internal/flight"
	"automdt/internal/fsim"
	"automdt/internal/metrics"
	"automdt/internal/rate"
	"automdt/internal/wire"
	"automdt/internal/workload"
)

// commitBatchChunks caps the receiver's adaptive write batch: at most
// this many staged chunks drain together per write-worker wake-up.
const commitBatchChunks = 16

// Receiver is the destination-side endpoint: one control listener and one
// data listener serving many concurrent transfer sessions. Each control
// connection negotiates one session; data connections are demultiplexed
// to their session by the token carried in their preamble. Every session
// owns its own staging buffer, write pool, and chunk ledger, so one
// session's failure or teardown cannot disturb its siblings. Admission is
// capped by Config.MaxSessions, and stale session ledgers older than
// Config.LedgerTTL are expired when the endpoint starts serving.
type Receiver struct {
	Cfg   Config
	Store fsim.Store
	// OnSessionDone, when set before Serve, observes every session as it
	// ends. It is called from the session's goroutine and must not block.
	OnSessionDone func(SessionResult)

	dataLn net.Listener
	ctrlLn net.Listener

	mu      sync.Mutex
	err     error
	closed  bool
	byToken map[string]*rsession
	byID    map[string]*rsession
	pending map[net.Conn]struct{}

	active    int
	admitted  int64
	rejected  int64
	completed int64
	failed    int64
	expired   int64

	// arb splits Cfg.WriteBudgetMbps across active sessions; nil when no
	// budget is configured.
	arb *writeArbiter

	// busyWait bounds handleControl's wait on a busy session's holder.
	busyWait time.Duration

	gcOnce sync.Once
	// fatal is closed when an acceptor dies outside shutdown, so serve
	// can stop blocking and surface the endpoint-fatal error.
	fatalOnce sync.Once
	fatal     chan struct{}
}

// errSessionBusy marks an admission conflict that resolves itself once
// the previous holder's teardown finishes; handleControl waits (bounded
// by Receiver.busyWait) for the holder's release instead of rejecting
// outright.
var errSessionBusy = errors.New("session busy")

// SessionResult summarizes one session served by the endpoint.
type SessionResult struct {
	SessionID string
	// Resumed reports whether the session picked up a persisted ledger.
	Resumed bool
	// CommittedBytes is the ledger-committed volume when the session
	// ended (the full dataset for a completed session).
	CommittedBytes int64
	// Err is the session's outcome: nil for a completed transfer.
	Err error
}

// rsession is one live transfer session at the endpoint. The demux
// routes data connections into it; the session's run loop owns the rest
// of its state as locals.
type rsession struct {
	id      string
	token   string // data-preamble routing key
	staging *Staging
	arena   *Arena
	ledger  atomic.Pointer[Ledger] // set once resume state is known; for gauges
	// resumed is written by runSession and read by handleControl after
	// runSession returns (same goroutine), so it needs no lock.
	resumed bool

	mu          sync.Mutex
	err         error
	cancel      context.CancelFunc // ends the session's run; set before the Welcome
	conns       []net.Conn
	connsClosed bool
	readerWG    sync.WaitGroup

	// released is closed when the endpoint unregisters the session; a
	// retry Hello for the same session ID waits on it.
	released chan struct{}
}

func (s *rsession) fail(err error) {
	s.mu.Lock()
	if s.err == nil && err != nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Err returns the session's first fatal error, if any.
func (s *rsession) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// abort fails the session from outside its run loop and ends the run.
func (s *rsession) abort(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	cancel := s.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// addConn registers a routed data connection and spawns its reader: the
// reader checks every frame against the session's chunk grid, leases
// frame payloads from the session's arena, and transfers the lease to
// the write pool through the session staging buffer.
func (s *rsession) addConn(conn net.Conn) {
	s.mu.Lock()
	if s.connsClosed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns = append(s.conns, conn)
	s.readerWG.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.readerWG.Done()
		defer conn.Close()
		var pending *Buf
		alloc := func(n int) []byte {
			pending = s.arena.Get(n)
			return pending.Bytes()
		}
		var fr wire.FrameReader
		for {
			pending = nil
			f, err := fr.Read(conn, alloc)
			if err != nil {
				if pending != nil {
					pending.Release()
				}
				// Not a session failure, EOF or otherwise: the sender
				// stripes the session across several data connections and
				// repairs the loss of one itself — it pulls the ledger and
				// re-plans the lost chunks over the survivors.
				return
			}
			// A frame is exactly one chunk of the session's grid. No
			// correct sender produces anything else, and writing it would
			// overwrite committed neighbours or grow the file, so unlike a
			// checksum failure it fails the session.
			if l := s.ledger.Load(); l == nil || !l.isChunk(f.FileID, f.Offset, len(f.Data)) {
				if pending != nil {
					pending.Release()
				}
				s.abort(fmt.Errorf("transfer: frame %d@%d+%d is not a chunk of this session",
					f.FileID, f.Offset, len(f.Data)))
				return
			}
			// The ledger sum is deliberately NOT the wire CRC: the write
			// stage re-hashes the payload at commit, so corruption between
			// frame verification and the disk write (staging memory, a
			// premature buffer reuse) still trips the sender-vs-receiver
			// FileSum compare.
			if !s.staging.Put(Chunk{FileID: f.FileID, Offset: f.Offset, Data: f.Data, Buf: pending}) {
				if pending != nil {
					pending.Release()
				}
				return
			}
		}
	}()
}

// closeConns closes every registered data connection and refuses new
// registrations; teardown then waits on readerWG.
func (s *rsession) closeConns() {
	s.mu.Lock()
	s.connsClosed = true
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// NewReceiver creates a receiver endpoint writing into store.
func NewReceiver(cfg Config, store fsim.Store) *Receiver {
	cfg = cfg.WithDefaults()
	return &Receiver{
		Cfg:      cfg,
		Store:    store,
		byToken:  make(map[string]*rsession),
		byID:     make(map[string]*rsession),
		pending:  make(map[net.Conn]struct{}),
		fatal:    make(chan struct{}),
		busyWait: 5 * time.Second,
		arb:      newWriteArbiter(cfg.WriteBudgetMbps, cfg.ChunkBytes),
	}
}

// Listen binds the data and control listeners on the given host (use
// "127.0.0.1:0" style addresses for tests). Call before Serve.
func (r *Receiver) Listen(dataAddr, ctrlAddr string) error {
	var err error
	r.dataLn, err = net.Listen("tcp", dataAddr)
	if err != nil {
		return fmt.Errorf("transfer: listen data: %w", err)
	}
	r.ctrlLn, err = net.Listen("tcp", ctrlAddr)
	if err != nil {
		r.dataLn.Close()
		return fmt.Errorf("transfer: listen control: %w", err)
	}
	return nil
}

// clampWriters bounds a peer-chosen write-pool size to [1, MaxThreads]:
// the Hello's InitialWriters and every SetWriters are outside input.
func (r *Receiver) clampWriters(n int) int { return max(1, min(n, r.Cfg.MaxThreads)) }

// DataAddr returns the bound data listener address.
func (r *Receiver) DataAddr() string { return r.dataLn.Addr().String() }

// CtrlAddr returns the bound control listener address.
func (r *Receiver) CtrlAddr() string { return r.ctrlLn.Addr().String() }

func (r *Receiver) fail(err error) {
	r.mu.Lock()
	if r.err == nil && err != nil {
		r.err = err
	}
	r.mu.Unlock()
}

// acceptFailed records an endpoint-fatal accept error and wakes serve so
// the endpoint shuts down instead of blocking as a silently dead
// listener. Accept errors after shutdown (the listener was closed
// deliberately) are the normal exit path and not recorded.
func (r *Receiver) acceptFailed(which string, err error) {
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if !closed {
		r.fail(fmt.Errorf("transfer: accept %s: %w", which, err))
		r.fatalOnce.Do(func() { close(r.fatal) })
	}
}

// Err returns the first endpoint-fatal error, if any. Per-session
// failures are reported through session results, not here.
func (r *Receiver) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Serve runs the endpoint until ctx is cancelled: it accepts control
// connections, negotiates one session per connection, and demultiplexes
// data connections across the live sessions. It must be called after
// Listen. On cancellation every session is torn down (persisting its
// ledger) before Serve returns ctx.Err().
func (r *Receiver) Serve(ctx context.Context) error { return r.serve(ctx, 0) }

// ServeN serves like Serve but returns once n sessions have finished
// (completed or failed — handshake rejections don't count), reporting
// the first session error if any. ServeN(ctx, 1) is the single-session
// receiver contract that Loopback and the CLI's one-shot recv mode use.
func (r *Receiver) ServeN(ctx context.Context, n int) error { return r.serve(ctx, n) }

func (r *Receiver) serve(ctx context.Context, maxDone int) error {
	r.gcOnce.Do(r.expireStaleLedgers)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	results := make(chan error)

	// Data acceptor: every connection gets a demux goroutine that reads
	// the preamble and routes the stream to its session.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := r.dataLn.Accept()
			if err != nil {
				r.acceptFailed("data", err)
				return
			}
			if !r.trackPending(conn) {
				conn.Close()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.demux(conn)
			}()
		}
	}()

	// Control acceptor: one session negotiation per connection.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := r.ctrlLn.Accept()
			if err != nil {
				r.acceptFailed("control", err)
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.handleControl(ctx, conn, results)
			}()
		}
	}()

	var firstErr error
	done := 0
	for {
		select {
		case <-ctx.Done():
			r.shutdown()
			cancel()
			wg.Wait()
			return ctx.Err()
		case <-r.fatal:
			r.shutdown()
			cancel()
			wg.Wait()
			return r.Err()
		case err := <-results:
			done++
			if firstErr == nil {
				firstErr = err
			}
			if maxDone > 0 && done >= maxDone {
				r.shutdown()
				cancel()
				wg.Wait()
				return firstErr
			}
		}
	}
}

// shutdown stops the intake: listeners closed, un-routed data
// connections closed, new admissions refused. Idempotent.
func (r *Receiver) shutdown() {
	r.mu.Lock()
	r.closed = true
	pending := make([]net.Conn, 0, len(r.pending))
	for c := range r.pending {
		pending = append(pending, c)
	}
	r.mu.Unlock()
	r.dataLn.Close()
	r.ctrlLn.Close()
	for _, c := range pending {
		c.Close()
	}
}

// trackPending registers a data connection awaiting demux so shutdown
// can force its preamble read off the socket. Reports false when the
// endpoint is already closed.
func (r *Receiver) trackPending(conn net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.pending[conn] = struct{}{}
	return true
}

func (r *Receiver) untrackPending(conn net.Conn) {
	r.mu.Lock()
	delete(r.pending, conn)
	r.mu.Unlock()
}

// demux routes one data connection to the session its preamble names.
// A connection that does not open with PreambleMagic and a live token is
// closed before a single frame is read.
func (r *Receiver) demux(conn net.Conn) {
	defer r.untrackPending(conn)
	var pre [wire.PreambleBytes]byte
	if _, err := io.ReadFull(conn, pre[:]); err != nil || [4]byte(pre[:4]) != wire.PreambleMagic {
		conn.Close()
		return
	}
	r.mu.Lock()
	sess := r.byToken[hex.EncodeToString(pre[4:])]
	r.mu.Unlock()
	if sess == nil {
		conn.Close() // unknown or stale token: never admit the frames
		return
	}
	sess.addConn(conn)
}

// handleControl negotiates and runs one session on a freshly accepted
// control connection.
func (r *Receiver) handleControl(ctx context.Context, raw net.Conn, results chan<- error) {
	ctrl := wire.NewConn(raw)
	// A cancelled endpoint context must unblock the Hello read and every
	// later control operation. The watch is on the endpoint context, not
	// the session's own cancel: an internal session failure must keep the
	// channel alive long enough to report the root cause to the sender.
	stopWatch := context.AfterFunc(ctx, func() { ctrl.Close() })
	defer stopWatch()

	m, err := ctrl.Recv()
	if err != nil || m.Hello == nil {
		ctrl.Close() // not a session: garbage or a vanished peer
		return
	}
	sess, held, reject := r.admit(m.Hello)
	if held != nil {
		// A retried attempt can race the previous attempt's teardown: the
		// sender is gone, but its session still holds the ledger key for up
		// to a control-channel-death detection plus a persist. Wait for the
		// holder's release instead of burning the retry.
		bound, stop := context.WithTimeout(ctx, r.busyWait)
		for held != nil && bound.Err() == nil {
			select {
			case <-held:
				sess, held, reject = r.admit(m.Hello)
			case <-bound.Done():
			}
		}
		stop()
	}
	if reject != nil {
		r.mu.Lock()
		r.rejected++
		r.mu.Unlock()
		ctrl.Send(wire.Message{Status: &wire.Status{Error: reject.Error()}})
		ctrl.Close()
		return
	}
	err = r.runSession(ctx, sess, ctrl, m.Hello)
	res := SessionResult{
		SessionID: sess.id,
		Resumed:   sess.resumed,
		Err:       err,
	}
	if l := sess.ledger.Load(); l != nil {
		res.CommittedBytes = l.CommittedBytes()
	}
	r.release(sess, err)
	if h := r.OnSessionDone; h != nil {
		h(res)
	}
	select {
	case results <- err:
	case <-ctx.Done():
	}
}

// admit applies the endpoint's admission rules to a Hello and registers
// the resulting session: this build's protocol generation only, the
// MaxSessions cap, and no two live sessions sharing a ledger key. The
// session's staging buffer and routing token exist from here on, so its
// data connections can be routed the moment the Welcome is out. When the
// session ID is still held by a previous attempt, held is that holder's
// released channel and the error is errSessionBusy.
func (r *Receiver) admit(h *wire.Hello) (sess *rsession, held <-chan struct{}, err error) {
	if h.ProtoVersion != wire.ProtoVersion {
		return nil, nil, fmt.Errorf("transfer: sender speaks protocol %d, this endpoint speaks protocol %d only", h.ProtoVersion, wire.ProtoVersion)
	}
	session := h.SessionID
	if session == "" {
		session = NewSessionID()
	}
	// The Hello may shrink the endpoint's staging capacity, never grow it.
	bufCap := r.Cfg.ReceiverBufBytes
	if h.ReceiverBufBytes > 0 {
		bufCap = min(h.ReceiverBufBytes, bufCap)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, nil, errors.New("transfer: endpoint shutting down")
	}
	if r.active >= r.Cfg.MaxSessions {
		return nil, nil, fmt.Errorf("transfer: endpoint at session capacity (%d)", r.Cfg.MaxSessions)
	}
	if holder, ok := r.byID[session]; ok {
		return nil, holder.released, fmt.Errorf("transfer: session %q is already active on this endpoint: %w", session, errSessionBusy)
	}
	sess = &rsession{
		id:       session,
		token:    wire.NewDataToken(),
		staging:  NewStaging(bufCap),
		arena:    r.Cfg.arena(),
		released: make(chan struct{}),
	}
	r.byToken[sess.token] = sess
	r.byID[session] = sess
	r.active++
	r.admitted++
	return sess, nil, nil
}

// release unregisters a finished session and records its outcome.
func (r *Receiver) release(sess *rsession, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.byID, sess.id)
	delete(r.byToken, sess.token)
	close(sess.released)
	r.active--
	if err == nil {
		r.completed++
	} else {
		r.failed++
	}
}

// expireStaleLedgers removes session ledgers whose last write is older
// than Config.LedgerTTL — the abandoned sessions of a long-lived
// destination, which would otherwise accumulate forever. Runs once, when
// the endpoint starts serving.
func (r *Receiver) expireStaleLedgers() {
	ttl := r.Cfg.LedgerTTL
	if ttl <= 0 {
		return
	}
	lister, ok := r.Store.(fsim.LedgerLister)
	ls, ok2 := r.Store.(fsim.LedgerStore)
	if !ok || !ok2 {
		return
	}
	infos, err := lister.ListLedgers()
	if err != nil {
		return
	}
	var n int64
	for _, info := range infos {
		if info.Age > ttl && ls.RemoveLedger(info.Session) == nil {
			n++
		}
	}
	if n > 0 {
		metrics.ResumeExpiredAdd(n)
		r.mu.Lock()
		r.expired += n
		r.mu.Unlock()
	}
}

// MetricsSnapshot exports the endpoint's gauges in the shared text
// format: admission counters, the active-session gauge, and per-session
// committed bytes and staging occupancy.
func (r *Receiver) MetricsSnapshot() metrics.Snapshot {
	r.mu.Lock()
	sessions := make([]*rsession, 0, len(r.byID))
	for _, s := range r.byID {
		sessions = append(sessions, s)
	}
	active, admitted, rejected := r.active, r.admitted, r.rejected
	completed, failed, expired := r.completed, r.failed, r.expired
	r.mu.Unlock()

	var snap metrics.Snapshot
	snap.Add("automdt_endpoint_sessions_active", float64(active))
	snap.Add("automdt_endpoint_sessions_total", float64(admitted), metrics.L("event", "admitted"))
	snap.Add("automdt_endpoint_sessions_total", float64(rejected), metrics.L("event", "rejected"))
	snap.Add("automdt_endpoint_sessions_total", float64(completed), metrics.L("event", "completed"))
	snap.Add("automdt_endpoint_sessions_total", float64(failed), metrics.L("event", "failed"))
	snap.Add("automdt_endpoint_ledgers_expired_total", float64(expired))
	if r.arb != nil {
		r.arb.snapshotInto(&snap)
	}
	for _, s := range sessions {
		id := metrics.L("session", s.id)
		snap.Add("automdt_endpoint_session_staging_used_bytes", float64(s.staging.Used()), id)
		if l := s.ledger.Load(); l != nil {
			snap.Add("automdt_endpoint_session_committed_bytes", float64(l.CommittedBytes()), id)
		}
	}
	return snap
}

// sumChecker holds the end-to-end file sums a checksummed session is
// owed: one for every non-empty file with no committed chunk in the
// ledger the Welcome advertised, the sender's fileSummer rule. An entry
// leaves owed once its verdict has landed, and settled closes when the
// last one does.
type sumChecker struct {
	mu      sync.Mutex
	owed    map[uint32]owedSum
	settled chan struct{}
}

type owedSum struct {
	crc       uint32
	announced bool
}

func newSumChecker(checksums bool, m workload.Manifest, l *Ledger) *sumChecker {
	c := &sumChecker{owed: make(map[uint32]owedSum), settled: make(chan struct{})}
	if checksums {
		for i, f := range m {
			if f.Size > 0 && l.FileCommitted(uint32(i)) == 0 {
				c.owed[uint32(i)] = owedSum{}
			}
		}
	}
	if len(c.owed) == 0 {
		close(c.settled)
	}
	return c
}

// announce records the sender's sum for an owed file; a sum nothing is
// owed for is ignored.
func (c *sumChecker) announce(fileID, crc uint32) {
	c.mu.Lock()
	if _, ok := c.owed[fileID]; ok {
		c.owed[fileID] = owedSum{crc: crc, announced: true}
	}
	c.mu.Unlock()
}

// want returns the announced sum of an owed file still awaiting its
// verdict.
func (c *sumChecker) want(fileID uint32) (uint32, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o, ok := c.owed[fileID]
	return o.crc, ok && o.announced
}

// verified retires an owed file once its verdict has landed.
func (c *sumChecker) verified(fileID uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.owed[fileID]; !ok {
		return
	}
	delete(c.owed, fileID)
	if len(c.owed) == 0 {
		close(c.settled)
	}
}

// runSession executes one admitted session to completion or failure: the
// Welcome handshake, the session-scoped write pool draining the staging
// buffer the demuxed readers fill, ledger persistence, and end-to-end
// file verification. It returns when the transfer completes, the session
// fails, or the endpoint context is cancelled; its teardown releases
// every arena lease the session took and persists the ledger's final
// state without touching any sibling session.
func (r *Receiver) runSession(parent context.Context, sess *rsession, ctrl *wire.Conn, h *wire.Hello) error {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	defer ctrl.Close()
	sess.mu.Lock()
	sess.cancel = cancel
	sess.mu.Unlock()

	manifest := make(workload.Manifest, len(h.Files))
	var total int64
	for i, f := range h.Files {
		manifest[i] = workload.File{Name: f.Name, Size: f.Size}
		total += f.Size
	}
	chunkBytes := h.ChunkBytes
	if chunkBytes <= 0 {
		chunkBytes = r.Cfg.ChunkBytes
	}

	// Session ledger: reload a persisted one when the store supports it
	// and the sender named a session, re-verifying every committed range
	// against the destination (a missing file or corrupt region loses
	// just its ledger entry) before advertising it.
	session := sess.id
	ledger := NewLedger(session, chunkBytes, manifest, h.Checksums)
	ls, canPersist := r.Store.(fsim.LedgerStore)
	resumable := canPersist && h.SessionID != "" && fsim.ValidSessionID(h.SessionID)
	if resumable {
		// LoadSessionLedger folds the append-only journal into the
		// snapshot (a torn or generation-mismatched journal truncates
		// to its last valid record) before anything is decided.
		if old, derr := LoadSessionLedger(ls, session); derr == nil &&
			old.MatchesManifest(manifest) == nil && old.HasSums == h.Checksums {
			if kept, _ := old.VerifyAgainst(r.Store); kept > 0 {
				metrics.ResumeSessionInc()
				metrics.ResumeSkippedAdd(kept)
				sess.resumed = true
			}
			ledger = old
			// The persisted ledger pins the session's chunk
			// geometry: the Welcome advertises its chunk size and
			// the sender plans with it, so a changed sender config
			// cannot orphan the committed ranges.
			chunkBytes = old.ChunkBytes
		}
	}
	sess.ledger.Store(ledger)
	// The persister owns all ledger writes for the session: journaled
	// O(delta) appends per probe tick, compaction, and the final
	// teardown persist. The opening compaction snapshots the
	// verification-adjusted state and folds any replayed journal away.
	persister := newLedgerPersister(ledger, r.Store, session, resumable, r.Cfg.LedgerCompactBytes)
	persister.compact()
	persist := persister.tick

	// End-to-end file verification: the sums owed are fixed by the ledger
	// the Welcome advertises, before any chunk can commit.
	chk := newSumChecker(h.Checksums, manifest, ledger)

	// No data connection can be routed into the session before this
	// send: the token has not left the process.
	if err := ctrl.Send(wire.Message{Welcome: &wire.Welcome{
		ProtoVersion: wire.ProtoVersion,
		SessionID:    session,
		ChunkBytes:   chunkBytes,
		Ledger:       ledger.WireStates(),
		DataToken:    sess.token,
	}}); err != nil {
		return fmt.Errorf("transfer: send welcome: %w", err)
	}

	staging := sess.staging

	writers := make([]fsim.FileWriter, len(h.Files))
	var writerMu sync.Mutex
	writerFor := func(id uint32) (fsim.FileWriter, error) {
		writerMu.Lock()
		defer writerMu.Unlock()
		if writers[id] == nil {
			w, err := r.Store.Create(h.Files[id].Name, h.Files[id].Size)
			if err != nil {
				return nil, err
			}
			writers[id] = w
		}
		return writers[id], nil
	}
	defer func() {
		writerMu.Lock()
		for _, w := range writers {
			if w != nil {
				w.Close()
			}
		}
		writerMu.Unlock()
	}()

	// checkFile verifies one owed, announced file once it is fully
	// committed: the ledger's per-chunk sums are folded into the
	// whole-file CRC and compared against the sender's. A mismatch
	// invalidates exactly that file's ledger range — the next resume
	// replans it — and fails the session. The file leaves the owed set
	// only AFTER the verdict lands, so a mismatch found by a write worker
	// can never race session completion into reporting success (duplicate
	// concurrent verifications are harmless — same sums, same verdict,
	// idempotent invalidation).
	checkFile := func(fileID uint32) {
		want, ok := chk.want(fileID)
		if !ok || !ledger.FileComplete(fileID) {
			return
		}
		got, ok := ledger.FileCRC(fileID)
		if !ok {
			return
		}
		if got != want {
			n := ledger.InvalidateFile(fileID)
			metrics.ResumeInvalidatedAdd(int64(n))
			persist()
			sess.fail(fmt.Errorf("transfer: end-to-end CRC mismatch on %s: got %#x want %#x (%d-chunk ledger range invalidated)",
				manifest[fileID].Name, got, want, n))
			cancel()
		}
		chk.verified(fileID)
	}

	// Write pool. Completion is ledger-driven: the session is done when
	// every chunk — freshly written or inherited from a resumed ledger —
	// is committed and every owed sum is verified.
	var writeCounter metrics.Counter
	perThread := newLimiterSet(r.Cfg.Shaping.WritePerThreadMbps, r.Cfg.ChunkBytes)
	agg := newLimiter(r.Cfg.Shaping.WriteAggMbps, r.Cfg.ChunkBytes)
	// The arbitrated budget bucket: the session's max-min fair share of
	// the endpoint's write budget, resized by the arbiter as siblings
	// come and go.
	budget := rate.Unlimited()
	if r.arb != nil {
		budget = r.arb.join(sess.id)
		defer r.arb.leave(sess.id)
	}
	writeDone := make(chan struct{})
	var writeOnce sync.Once
	if ledger.CommittedBytes() >= total {
		// Nothing to move (empty dataset, or a resume that was already
		// complete): the session is done as soon as it starts.
		writeOnce.Do(func() { close(writeDone) })
	}
	// commit records one written chunk in the ledger. The payload is
	// hashed at this last stage, before its arena lease is returned: the
	// sum reflects what actually reached the store, so the FileSum
	// compare is end-to-end, not an echo of the already-verified wire CRC.
	commit := func(c *Chunk) {
		var sum uint32
		if h.Checksums {
			sum = wire.PayloadCRC(c.Data)
		}
		if !ledger.Commit(c.FileID, c.Offset, len(c.Data), sum) {
			return
		}
		if h.Checksums {
			checkFile(c.FileID)
		}
		if ledger.CommittedBytes() >= total {
			writeOnce.Do(func() { close(writeDone) })
		}
	}
	// writeChunk lands one chunk with one positioned write.
	writeChunk := func(c *Chunk) error {
		w, err := writerFor(c.FileID)
		if err != nil {
			return err
		}
		span := flight.StageStart()
		wire.CountIOOps(1)
		n, err := w.WriteAt(c.Data, c.Offset)
		flight.StageEnd(flight.StageWrite, span)
		if err == nil && n < len(c.Data) {
			err = io.ErrShortWrite
		}
		return err
	}
	// An unshaped write stage drains batches sized from the env's
	// write-stage dimension: a deep backlog shared over few writers
	// drains in large batches, a keeping-up pool degenerates to
	// chunk-at-a-time. A shaped stage always moves one chunk at a time:
	// it gains nothing from batching, which would lump the paced writes
	// into end-of-window bursts.
	batched := r.Cfg.Shaping.WritePerThreadMbps <= 0 && r.Cfg.Shaping.WriteAggMbps <= 0 &&
		r.Cfg.WriteBudgetMbps <= 0
	var pool *Pool
	pool = NewPool(func(stop <-chan struct{}, id int) {
		lim := perThread.get(id)
		var batch []Chunk
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			default:
			}
			k := 1
			if batched {
				if w := pool.Size(); w > 0 {
					k = min(1+staging.Len()/w, commitBatchChunks)
				}
			}
			// An empty buffer parks the worker (no timer) until a Put or
			// Close, its stop, or the context: all but a Put end it.
			batch, _ = staging.GetN(batch[:0], k, stop, ctx.Done())
			if len(batch) == 0 {
				return
			}
			for i := range batch {
				c := &batch[i]
				// Drop duplicates of committed chunks (resume overlap or a
				// replayed frame) without touching the disk.
				if ledger.Done(c.FileID, c.Offset) {
					c.Release()
					continue
				}
				sz := len(c.Data)
				if lim.WaitN(ctx, sz) != nil || agg.WaitN(ctx, sz) != nil || budget.WaitN(ctx, sz) != nil {
					releaseAll(batch[i:])
					return // limiter wait cancelled: the session is coming down
				}
				if err := writeChunk(c); err != nil {
					releaseAll(batch[i:])
					sess.fail(err)
					cancel()
					return
				}
				commit(c)
				writeCounter.Add(int64(sz))
				c.Release()
			}
		}
	})
	n := h.InitialWriters
	if n <= 0 {
		n = r.Cfg.InitialThreads
	}
	pool.Resize(r.clampWriters(n))
	// Shutdown discipline: stop this session's intake first (every data
	// connection, then wait for the readers those connections fed), close
	// staging so a reader still mid-Put fails and releases its own lease,
	// stop the write pool, and only then drain what's left. After this
	// defer runs, every arena lease this session took is returned, and
	// the ledger's latest state is persisted so the next attempt can
	// resume from it. Sibling sessions and the endpoint listeners are
	// untouched.
	defer func() {
		sess.closeConns()
		// Close staging BEFORE waiting on the readers: closing the conns
		// only unblocks readers parked in a socket read, while a reader
		// blocked in Put on a full staging buffer (write pool already
		// gone on cancellation) only wakes when staging closes — waiting
		// first would deadlock the session forever.
		staging.Close()
		sess.readerWG.Wait()
		pool.Shutdown()
		staging.ReleaseRemaining()
		persist()
	}()

	// Control loop: periodic status out; SetWriters commands, file sums
	// and ledger pulls in. A dead control channel ends the session
	// immediately: the sender can neither steer nor learn the outcome
	// without it, and a prompt teardown frees the session's ledger key for
	// the retry that typically follows (after completion the cancel is a
	// no-op).
	cmds := make(chan wire.Message, 8)
	go func() {
		for {
			m, err := ctrl.Recv()
			if err != nil {
				cancel()
				return
			}
			select {
			case cmds <- m:
			case <-ctx.Done():
				return
			}
		}
	}()

	ticker := time.NewTicker(r.Cfg.ProbeInterval)
	defer ticker.Stop()
	sendStatus := func(done bool) error {
		wBytes := writeCounter.Reset()
		mbps := bytesToMb(wBytes) / r.Cfg.ProbeInterval.Seconds()
		st := wire.Status{
			CommittedBytes: ledger.CommittedBytes(),
			BufFree:        staging.Free(),
			WriteMbps:      mbps,
			Writers:        pool.Size(),
			Done:           done,
		}
		if e := sess.Err(); e != nil {
			st.Error = e.Error()
		}
		return ctrl.Send(wire.Message{Status: &st})
	}

	handleCmd := func(m wire.Message) {
		switch {
		case m.SetWriters != nil:
			pool.Resize(r.clampWriters(m.SetWriters.N))
		case m.FileSum != nil:
			chk.announce(m.FileSum.FileID, m.FileSum.CRC)
			checkFile(m.FileSum.FileID)
		case m.LedgerPull != nil:
			// Striping recovery: answer with the current committed state
			// so the sender re-plans only the chunks this endpoint never
			// got. A send error here is a dying control channel, which
			// ends the session through its own path.
			ctrl.Send(wire.Message{LedgerState: &wire.LedgerState{
				Seq:    m.LedgerPull.Seq,
				Ledger: ledger.WireStates(),
			}})
		}
	}

	// finishSession concludes a fully committed session whose owed sums
	// are all verified: either persist the (invalidated) ledger and fail,
	// or drop the ledger and confirm completion.
	finishSession := func() error {
		if e := sess.Err(); e != nil {
			persist()
			sendStatus(false)
			return e
		}
		persister.markDone()
		if resumable {
			ls.RemoveLedger(session)
		}
		return sendStatus(true)
	}

	// Each wait is nil-ed after it fires so the select keeps serving
	// control messages until both have: the last sums can trail the last
	// frame, since control and data are separate TCP connections.
	waitDone, waitSums := writeDone, chk.settled
	for waitDone != nil || waitSums != nil {
		select {
		case <-ctx.Done():
			sendStatus(false)
			if e := sess.Err(); e != nil {
				return e
			}
			return ctx.Err()
		case <-waitDone:
			waitDone = nil
		case <-waitSums:
			waitSums = nil
		case m := <-cmds:
			handleCmd(m)
		case <-ticker.C:
			persist()
			if err := sendStatus(false); err != nil {
				return err
			}
		}
	}
	return finishSession()
}
