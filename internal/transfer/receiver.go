package transfer

import (
	"bufio"
	"bytes"
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

// Receiver is the destination-side endpoint: one listener serving many
// concurrent transfer sessions. Each accepted connection's first byte
// says what it is: the data preamble's magic or a control message tag.
// A control connection carries one session at a time, one after another:
// a session that ends with Done leaves it open for the next Hello. Data
// connections are demultiplexed to their session by the token carried in
// their preamble, and a later preamble at a frame boundary moves a
// connection to the session it names. Every session owns its own staging
// buffer, write pool, and chunk ledger, so one session's failure or
// teardown cannot disturb its siblings. Admission is capped by
// Config.MaxSessions, and stale session ledgers older than
// Config.LedgerTTL are expired when the endpoint starts serving.
type Receiver struct {
	Cfg   Config
	Store fsim.Store
	// OnSessionDone, when set before Serve, observes every session as it
	// ends. It is called from the session's goroutine and must not block.
	OnSessionDone func(SessionResult)

	ln net.Listener

	mu      sync.Mutex
	err     error
	closed  bool
	byToken map[string]*rsession
	byID    map[string]*rsession
	// idle holds every accepted connection no live session owns: control
	// connections between sessions, and data connections before their
	// first preamble or after their session's verdict. shutdown closes
	// them.
	idle map[net.Conn]struct{}

	active    int
	admitted  int64
	rejected  int64
	completed int64
	failed    int64
	expired   int64
	accepted  [2]int64 // control, data connections

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

// Indexes of Receiver.accepted.
const (
	acceptedCtrl = iota
	acceptedData
)

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
// routes data connections into it, and its control connection's reader
// hands it control messages; the session's run loop owns the rest of its
// state as locals.
type rsession struct {
	id      string
	token   string // data-preamble routing key
	staging *Staging
	arena   *Arena
	ledger  atomic.Pointer[Ledger] // set once resume state is known; for gauges
	// resumed is written by runSession and read by serveSession after
	// runSession returns (same goroutine), so it needs no lock.
	resumed bool
	// cmds carries the control messages the connection's reader hands
	// the session.
	cmds chan wire.Message

	// ended is set once the verdict is decided, before a Done leaves: a
	// frame read after it goes nowhere.
	ended atomic.Bool
	// verdict is closed once the verdict is decided; completed, written
	// before, tells whether it was Done.
	verdict   chan struct{}
	completed bool
	once      sync.Once

	mu     sync.Mutex
	err    error
	cancel context.CancelFunc // ends the session's run; set before it starts

	// conns are the data connections bound to the session, guarded by
	// Receiver.mu. readerWG counts their readers until each rebinds or
	// exits.
	conns    map[net.Conn]struct{}
	readerWG sync.WaitGroup
	// retired records that the session no longer counts against
	// MaxSessions; guarded by Receiver.mu.
	retired bool

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

// decide records the session's verdict, once: Done when completed is
// true. It reports the verdict that stands.
func (s *rsession) decide(completed bool) bool {
	s.once.Do(func() {
		s.completed = completed
		s.ended.Store(true)
		close(s.verdict)
	})
	return s.completed
}

// deliver hands m to the session's run loop. It reports false, having
// handed nothing, once the verdict is in.
func (s *rsession) deliver(m wire.Message) bool {
	select {
	case <-s.verdict:
		return false
	default:
	}
	select {
	case s.cmds <- m:
		return true
	case <-s.verdict:
		return false
	}
}

// readAheadBytes is the read-ahead buffer of one data connection: a run
// of 4 KiB frames costs one socket read per ~15 frames instead of two
// per frame.
const readAheadBytes = 64 << 10

// readAheads pools the data connections' read-ahead buffers, so a
// connection that lives for one chunk does not allocate one.
var readAheads = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, readAheadBytes) }}

// frameSource is one data connection's decoding state. It belongs to the
// connection, not to a session: bytes read ahead of a preamble that
// rebinds the connection carry over to the next session.
type frameSource struct {
	conn io.Reader
	br   *bufio.Reader
	fr   wire.FrameReader
	// ahead reports whether the next frame is read through br even when
	// nothing is buffered.
	ahead bool
}

func newFrameSource(conn io.Reader) *frameSource {
	br := readAheads.Get().(*bufio.Reader)
	br.Reset(conn)
	return &frameSource{conn: conn, br: br}
}

// release returns the read-ahead buffer to the pool, holding no
// reference to the connection.
func (src *frameSource) release() {
	src.br.Reset(nil)
	readAheads.Put(src.br)
	src.br = nil
}

// next reads the next frame, or the preamble standing in its place.
// Reading ahead pays off only for frames well under the buffer's size.
// Past a frame of half of it or more, and before a session's first,
// reading ahead would save at most one 20-byte header read and copy up
// to the whole buffer, so the next frame comes straight from the
// connection whenever nothing is buffered: its payload lands directly in
// its lease.
func (src *frameSource) next(alloc func(n int) []byte) (wire.Frame, error) {
	var r io.Reader = src.br
	if !src.ahead && src.br.Buffered() == 0 {
		r = src.conn
	}
	return src.fr.Read(r, alloc)
}

// readFrames decodes src's frames into the session until the stream ends
// or fails, or until a preamble rebinds the connection: then it reports
// true, and src.fr holds the preamble's token. It checks every frame
// against the session's chunk grid, leases frame payloads from the
// session's arena, and transfers the lease to the write pool through the
// session staging buffer. A frame read after the session's verdict goes
// nowhere: its lease is released at once.
func (s *rsession) readFrames(src *frameSource) (rebind bool) {
	var pending *Buf
	alloc := func(n int) []byte {
		pending = s.arena.Get(n)
		return pending.Bytes()
	}
	src.ahead = false
	for {
		pending = nil
		f, err := src.next(alloc)
		if err != nil {
			if pending != nil {
				pending.Release()
			}
			// Not a session failure, EOF or otherwise: the sender
			// stripes the session across several data connections and
			// repairs the loss of one itself — it pulls the ledger and
			// re-plans the lost chunks over the survivors.
			return errors.Is(err, wire.ErrPreamble)
		}
		if s.ended.Load() {
			if pending != nil {
				pending.Release()
			}
			continue
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
			return false
		}
		// The ledger sum is deliberately NOT the wire CRC: the write
		// stage re-hashes the payload at commit, so corruption between
		// frame verification and the disk write (staging memory, a
		// premature buffer reuse) still trips the sender-vs-receiver
		// FileSum compare. A closed staging buffer is a session coming
		// down: the frame goes nowhere.
		if !s.staging.Put(Chunk{FileID: f.FileID, Offset: f.Offset, Data: f.Data, Buf: pending}) {
			if pending != nil {
				pending.Release()
			}
			continue
		}
		src.ahead = len(f.Data) < readAheadBytes/2
	}
}

// serveData runs one accepted data connection for its whole life, from
// the second byte of its opening preamble on. That preamble names a live
// session; a later preamble at a frame boundary moves the connection to
// the session that one names, which is how a sender reuses it once the
// previous session ended with Done. A connection whose preamble is
// malformed or names no live session is closed before a single frame is
// read.
func (r *Receiver) serveData(conn net.Conn) {
	var sess *rsession
	defer func() {
		r.dropConn(conn, sess)
		conn.Close()
	}()
	pre := [wire.PreambleBytes]byte{wire.PreambleMagic[0]}
	if _, err := io.ReadFull(conn, pre[1:]); err != nil || [4]byte(pre[:4]) != wire.PreambleMagic {
		return
	}
	if sess = r.bind(conn, nil, [wire.DataTokenBytes]byte(pre[4:])); sess == nil {
		return // unknown or stale token: never admit the frames
	}
	src := newFrameSource(conn)
	defer src.release()
	for sess.readFrames(src) {
		if sess = r.bind(conn, sess, src.fr.Token()); sess == nil {
			return
		}
	}
}

// bind moves a data connection from the session it carried (nil for a
// fresh one) to the live session token names, and returns that session,
// or nil when the token names none.
func (r *Receiver) bind(conn net.Conn, from *rsession, token [wire.DataTokenBytes]byte) *rsession {
	r.mu.Lock()
	to := r.byToken[hex.EncodeToString(token[:])]
	if r.closed {
		to = nil
	}
	if from != nil {
		delete(from.conns, conn)
	}
	if to != nil {
		delete(r.idle, conn)
		to.conns[conn] = struct{}{}
		to.readerWG.Add(1)
	}
	r.mu.Unlock()
	if from != nil {
		from.readerWG.Done()
	}
	return to
}

// dropConn forgets a data connection whose reader is exiting.
func (r *Receiver) dropConn(conn net.Conn, sess *rsession) {
	r.mu.Lock()
	delete(r.idle, conn)
	if sess != nil {
		delete(sess.conns, conn)
	}
	r.mu.Unlock()
	if sess != nil {
		sess.readerWG.Done()
	}
}

// unbindConns ends a session's claim on its data connections and stops
// new ones binding: a completed session leaves them open for the
// sender's next session, any other closes them.
func (r *Receiver) unbindConns(sess *rsession, completed bool) {
	r.mu.Lock()
	delete(r.byToken, sess.token)
	conns := sess.conns
	sess.conns = nil // no bind reaches it: the token is gone
	keep := completed && !r.closed
	if keep {
		for c := range conns {
			r.idle[c] = struct{}{}
		}
	}
	r.mu.Unlock()
	if !keep {
		for c := range conns {
			c.Close()
		}
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
		idle:     make(map[net.Conn]struct{}),
		fatal:    make(chan struct{}),
		busyWait: 5 * time.Second,
		arb:      newWriteArbiter(cfg.WriteBudgetMbps, cfg.ChunkBytes),
	}
}

// Listen binds the endpoint's one listener, which takes both data and
// control connections (use "127.0.0.1:0" in tests). Call before Serve.
func (r *Receiver) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("transfer: listen: %w", err)
	}
	r.ln = ln
	return nil
}

// clampWriters bounds a peer-chosen write-pool size to [1, MaxThreads]:
// the Hello's InitialWriters and every SetWriters are outside input.
func (r *Receiver) clampWriters(n int) int { return max(1, min(n, r.Cfg.MaxThreads)) }

// Addr returns the bound listener address.
func (r *Receiver) Addr() string { return r.ln.Addr().String() }

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
func (r *Receiver) acceptFailed(err error) {
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if !closed {
		r.fail(fmt.Errorf("transfer: accept: %w", err))
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

// Serve runs the endpoint until ctx is cancelled: it accepts
// connections, runs each control connection's sessions one after
// another, and demultiplexes data connections across the live sessions.
// It must be called after Listen. On cancellation every session is torn
// down (persisting its ledger) before Serve returns ctx.Err().
func (r *Receiver) Serve(ctx context.Context) error { return r.serve(ctx, 0) }

// ServeN serves like Serve but returns once n sessions have finished
// (completed or failed — handshake rejections don't count), reporting
// the first session error if any. ServeN(ctx, 1) is the single-session
// receiver contract that Loopback and `automdt-xfer serve -sessions 1` use.
func (r *Receiver) ServeN(ctx context.Context, n int) error { return r.serve(ctx, n) }

func (r *Receiver) serve(ctx context.Context, maxDone int) error {
	r.gcOnce.Do(r.expireStaleLedgers)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	results := make(chan error)

	// Acceptor: every connection gets a goroutine that serves it as what
	// its first byte says it is.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := r.ln.Accept()
			if err != nil {
				r.acceptFailed(err)
				return
			}
			if !r.trackAccepted(conn) {
				conn.Close()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.serveConn(ctx, conn, results)
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

// shutdown stops the intake: the listener closed, connections no session
// owns closed, new admissions refused. Idempotent.
func (r *Receiver) shutdown() {
	r.mu.Lock()
	r.closed = true
	idle := make([]net.Conn, 0, len(r.idle))
	for c := range r.idle {
		idle = append(idle, c)
	}
	r.mu.Unlock()
	r.ln.Close()
	for _, c := range idle {
		c.Close()
	}
}

// trackAccepted registers an accepted connection as idle, so shutdown
// can force its read off the socket, even before its first byte. Reports
// false when the endpoint is already closed.
func (r *Receiver) trackAccepted(conn net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.idle[conn] = struct{}{}
	return true
}

// serveConn reads an accepted connection's first byte and serves the
// connection as what that byte says: the preamble magic's first byte
// opens a data connection, a control message tag a control connection.
// Any other byte — a protocol ≤ 4 gob stream's among them — closes it
// with no reply, counted under no kind.
func (r *Receiver) serveConn(ctx context.Context, conn net.Conn, results chan<- error) {
	var first [1]byte
	_, err := io.ReadFull(conn, first[:])
	switch {
	case err != nil:
	case first[0] == wire.PreambleMagic[0]:
		r.countAccepted(acceptedData)
		r.serveData(conn)
		return
	case wire.IsControlTag(first[0]):
		r.countAccepted(acceptedCtrl)
		r.handleControl(ctx, conn, first[0], results)
		return
	}
	r.untrackIdle(conn)
	conn.Close()
}

// unread returns conn with first, the byte serveConn read to classify
// it, put back in front of its stream.
func unread(conn net.Conn, first byte) io.ReadWriteCloser {
	return struct {
		io.Reader
		io.Writer
		io.Closer
	}{io.MultiReader(bytes.NewReader([]byte{first}), conn), conn, conn}
}

func (r *Receiver) countAccepted(kind int) {
	r.mu.Lock()
	r.accepted[kind]++
	r.mu.Unlock()
}

func (r *Receiver) untrackIdle(conn net.Conn) {
	r.mu.Lock()
	delete(r.idle, conn)
	r.mu.Unlock()
}

// handleControl serves one control connection for its whole life. Its
// loop is the connection's only reader: it hands every message to the
// session bound at that moment, and while none is bound it starts a
// session on a Hello and drops anything else — a SetWriters, LedgerPull
// or FileSum the sender had in flight when its last session's Done
// arrived. A session that ends with Done leaves the connection open for
// the next Hello. Any other verdict closes it, as do a refused Hello, a
// second Hello while a session is bound, and a dead peer or endpoint.
func (r *Receiver) handleControl(ctx context.Context, raw net.Conn, first byte, results chan<- error) {
	ctrl := wire.NewConn(unread(raw, first))
	// A cancelled endpoint context must unblock the Hello read and every
	// later control operation. The watch is on the endpoint context, not
	// a session's own cancel: an internal session failure must keep the
	// channel alive long enough to report the root cause to the sender.
	stopWatch := context.AfterFunc(ctx, func() { ctrl.Close() })
	defer stopWatch()
	var sessions sync.WaitGroup
	var bound *rsession
	defer func() {
		// A dead control channel ends a live session immediately: the
		// sender can neither steer nor learn the outcome without it, and
		// a prompt teardown frees the session's ledger key for the retry
		// that typically follows. After the verdict the abort is a no-op.
		if bound != nil {
			bound.abort(context.Canceled)
		}
		sessions.Wait()
		r.untrackIdle(raw)
	}()
	for {
		m, err := ctrl.Recv()
		if err != nil {
			ctrl.Close() // garbage or a vanished peer
			return
		}
		if bound != nil {
			select {
			case <-bound.verdict:
			default:
				if m.Hello != nil {
					// One session at a time: the bound one fails, and its
					// error Status is the connection's last message.
					bound.abort(errors.New("transfer: Hello while a session runs on this control connection"))
					continue
				}
				if bound.deliver(m) {
					continue
				}
			}
			if !bound.completed {
				ctrl.Close()
				return
			}
			bound = nil
		}
		if m.Hello == nil {
			continue // a straggler of the last session
		}
		sess, reject := r.admitWaiting(ctx, m.Hello)
		if reject != nil {
			r.mu.Lock()
			r.rejected++
			r.mu.Unlock()
			ctrl.Send(wire.Message{Status: &wire.Status{Error: reject.Error()}})
			ctrl.Close()
			return
		}
		r.untrackIdle(raw)
		sctx, cancel := context.WithCancel(ctx)
		sess.mu.Lock()
		sess.cancel = cancel
		sess.mu.Unlock()
		bound = sess
		sessions.Add(1)
		go func(h *wire.Hello) {
			defer sessions.Done()
			defer cancel()
			r.serveSession(ctx, sctx, sess, raw, ctrl, h, results)
		}(m.Hello)
	}
}

// admitWaiting admits a Hello. A retried attempt can race the previous
// attempt's teardown: the sender is gone, but its session still holds the
// ledger key for up to a control-channel-death detection plus a persist.
// admitWaiting waits, bounded by busyWait, for the holder's release
// instead of burning the retry.
func (r *Receiver) admitWaiting(ctx context.Context, h *wire.Hello) (*rsession, error) {
	sess, held, err := r.admit(h)
	if held == nil {
		return sess, err
	}
	bound, stop := context.WithTimeout(ctx, r.busyWait)
	defer stop()
	for held != nil && bound.Err() == nil {
		select {
		case <-held:
			sess, held, err = r.admit(h)
		case <-bound.Done():
		}
	}
	return sess, err
}

// serveSession runs one admitted session in sctx, unregisters it, and
// reports its outcome on results while the endpoint context lives.
func (r *Receiver) serveSession(ctx, sctx context.Context, sess *rsession, raw net.Conn, ctrl *wire.Conn, h *wire.Hello, results chan<- error) {
	err := r.runSession(sctx, sess, raw, ctrl, h)
	// A session that returned before its teardown was armed may still
	// hold data connections.
	r.unbindConns(sess, sess.decide(false))
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

// Bounds on the manifest a Hello may ask an endpoint to ledger. They cap
// what one session can make the endpoint allocate; every transfer this
// repository runs fits well inside them.
const (
	minHelloChunk  = 4 << 10
	maxHelloFiles  = 1 << 20
	maxHelloChunks = 1 << 24
)

// checkHello refuses a Hello whose manifest breaks the bounds above: a
// chunk size outside [minHelloChunk, wire.MaxChunk] (≤ 0 takes the
// endpoint's), a negative file size, too many files, or too many chunks.
func (r *Receiver) checkHello(h *wire.Hello) error {
	cb := int64(h.ChunkBytes)
	if cb <= 0 {
		cb = int64(r.Cfg.ChunkBytes)
	}
	if cb < minHelloChunk || cb > wire.MaxChunk {
		return fmt.Errorf("transfer: Hello ChunkBytes %d outside [%d, %d]", cb, minHelloChunk, wire.MaxChunk)
	}
	if len(h.Files) > maxHelloFiles {
		return fmt.Errorf("transfer: Hello lists %d Files, limit %d", len(h.Files), maxHelloFiles)
	}
	var chunks int64
	for i, f := range h.Files {
		if f.Size < 0 {
			return fmt.Errorf("transfer: Hello file %d has Size %d", i, f.Size)
		}
		// Divide before rounding up: Size+cb-1 overflows near MaxInt64.
		chunks += f.Size / cb
		if f.Size%cb != 0 {
			chunks++
		}
		if chunks > maxHelloChunks {
			return fmt.Errorf("transfer: Hello Files need more than %d chunks of %d bytes", maxHelloChunks, cb)
		}
	}
	return nil
}

// admit applies the endpoint's admission rules to a Hello and registers
// the resulting session: this build's protocol generation only, a
// manifest within the Hello bounds, the MaxSessions cap, and no two live
// sessions sharing a ledger key. The
// session's staging buffer and routing token exist from here on, so its
// data connections can be routed the moment the Welcome is out. When the
// session ID is still held by a previous attempt, held is that holder's
// released channel and the error is errSessionBusy.
func (r *Receiver) admit(h *wire.Hello) (sess *rsession, held <-chan struct{}, err error) {
	if h.ProtoVersion != wire.ProtoVersion {
		return nil, nil, fmt.Errorf("transfer: sender speaks protocol %d, this endpoint speaks protocol %d only", h.ProtoVersion, wire.ProtoVersion)
	}
	if err := r.checkHello(h); err != nil {
		return nil, nil, err
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
		cmds:     make(chan wire.Message, 8), // the reader runs a few messages ahead of the run loop
		verdict:  make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
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
	r.retireLocked(sess)
	if err == nil {
		r.completed++
	} else {
		r.failed++
	}
}

// retireLocked frees a session's admission slot, once. A completed
// session frees it before its Done leaves, so the sender's next Hello on
// the same connection does not find the endpoint at capacity while the
// finished session's teardown runs. Caller holds r.mu.
func (r *Receiver) retireLocked(sess *rsession) {
	if !sess.retired {
		sess.retired = true
		r.active--
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
	accepted := r.accepted
	r.mu.Unlock()

	var snap metrics.Snapshot
	snap.Add("automdt_endpoint_sessions_active", float64(active))
	snap.Add("automdt_endpoint_sessions_total", float64(admitted), metrics.L("event", "admitted"))
	snap.Add("automdt_endpoint_sessions_total", float64(rejected), metrics.L("event", "rejected"))
	snap.Add("automdt_endpoint_sessions_total", float64(completed), metrics.L("event", "completed"))
	snap.Add("automdt_endpoint_sessions_total", float64(failed), metrics.L("event", "failed"))
	snap.Add("automdt_endpoint_ledgers_expired_total", float64(expired))
	snap.Add("automdt_endpoint_conns_accepted_total", float64(accepted[acceptedCtrl]), metrics.L("kind", "control"))
	snap.Add("automdt_endpoint_conns_accepted_total", float64(accepted[acceptedData]), metrics.L("kind", "data"))
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

// sumChecker holds the end-to-end file sums a session is owed: one for
// every non-empty file with no committed chunk in the ledger the Welcome
// advertised, the sender's fileSummer rule. An entry leaves owed once
// its verdict has landed, and settled closes when the last one does.
type sumChecker struct {
	mu      sync.Mutex
	owed    map[uint32]owedSum
	settled chan struct{}
}

type owedSum struct {
	crc       uint32
	announced bool
}

func newSumChecker(m workload.Manifest, l *Ledger) *sumChecker {
	c := &sumChecker{owed: make(map[uint32]owedSum), settled: make(chan struct{})}
	for i, f := range m {
		if f.Size > 0 && l.FileCommitted(uint32(i)) == 0 {
			c.owed[uint32(i)] = owedSum{}
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
// fails, or ctx — the session's, a child of the endpoint's — is
// cancelled; its teardown releases every arena lease the session took
// and persists the ledger's final state without touching any sibling
// session. A completed session leaves its connections open for the
// sender's next session; any other verdict closes them.
func (r *Receiver) runSession(ctx context.Context, sess *rsession, raw net.Conn, ctrl *wire.Conn, h *wire.Hello) error {
	cancel := sess.cancel
	defer func() {
		if !sess.decide(false) {
			ctrl.Close()
		}
	}()

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
	ledger := NewLedger(session, chunkBytes, manifest, true)
	ls, canPersist := r.Store.(fsim.LedgerStore)
	resumable := canPersist && h.SessionID != "" && fsim.ValidSessionID(h.SessionID)
	if resumable {
		// LoadSessionLedger folds the append-only journal into the
		// snapshot (a torn or generation-mismatched journal truncates
		// to its last valid record) before anything is decided. A
		// ledger without per-chunk sums cannot prove its committed
		// ranges, so it is not resumed: the session starts over and
		// replaces it.
		if old, derr := LoadSessionLedger(ls, session); derr == nil &&
			old.MatchesManifest(manifest) == nil && old.HasSums {
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
	chk := newSumChecker(manifest, ledger)

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

	// A destination file is open while chunks of it are being written,
	// and closed once the ledger holds all of it.
	writers := newFileTable(len(h.Files), func(id uint32) (fsim.FileWriter, error) {
		return r.Store.Create(h.Files[id].Name, h.Files[id].Size)
	})
	defer writers.closeAll()

	// invalidate drops exactly one file's ledger range, so the next resume
	// replans it, persists that, and returns err saying so.
	invalidate := func(fileID uint32, err error) error {
		n := ledger.InvalidateFile(fileID)
		metrics.ResumeInvalidatedAdd(int64(n))
		persist()
		return fmt.Errorf("%w (%d-chunk ledger range invalidated)", err, n)
	}

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
			sess.fail(invalidate(fileID, fmt.Errorf("transfer: end-to-end CRC mismatch on %s: got %#x want %#x",
				manifest[fileID].Name, got, want)))
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
		if !ledger.Commit(c.FileID, c.Offset, len(c.Data), wire.PayloadCRC(c.Data)) {
			return
		}
		checkFile(c.FileID)
		if ledger.CommittedBytes() >= total {
			writeOnce.Do(func() { close(writeDone) })
		}
	}
	// writeChunk lands one chunk with one positioned write and commits
	// it. The file's handle is released after the commit, which closes
	// it once the ledger holds the whole file; a failed close drops the
	// file from the ledger. landing is held shared from the commit to the
	// release.
	var landing sync.RWMutex
	writeChunk := func(c *Chunk) error {
		w, err := writers.acquire(c.FileID)
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
		if err != nil {
			writers.release(c.FileID, false)
			return err
		}
		landing.RLock()
		defer landing.RUnlock()
		commit(c)
		if err := writers.release(c.FileID, ledger.FileComplete(c.FileID)); err != nil {
			return invalidate(c.FileID, fmt.Errorf("transfer: close %s: %w", manifest[c.FileID].Name, err))
		}
		return nil
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
	// Shutdown discipline: stop this session's intake first (a failed
	// session closes every data connection, then waits for the readers
	// those connections fed), close staging so a reader still mid-Put
	// fails and releases its own lease, stop the write pool, and only
	// then drain what's left. After this defer runs, every arena lease
	// this session took is returned, and the ledger's latest state is
	// persisted so the next attempt can resume from it. A completed
	// session leaves its data connections open and does not wait on
	// their readers: once its verdict is in, a frame they read goes
	// nowhere. Sibling sessions and the endpoint listener are untouched.
	defer func() {
		completed := sess.decide(false)
		r.unbindConns(sess, completed)
		// Close staging BEFORE waiting on the readers: closing the conns
		// only unblocks readers parked in a socket read, while a reader
		// blocked in Put on a full staging buffer (write pool already
		// gone on cancellation) only wakes when staging closes — waiting
		// first would deadlock the session forever.
		staging.Close()
		if !completed {
			sess.readerWG.Wait()
		}
		pool.Shutdown()
		staging.ReleaseRemaining()
		persist()
	}()

	// Control loop: periodic status out; SetWriters commands, file sums
	// and ledger pulls in, handed over by the connection's reader, which
	// cancels the session when the control channel dies.
	cmds := sess.cmds

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
		// The last commit can land before another file's close does: wait
		// out every write between its commit and its release, so a close
		// failure lands before the verdict.
		landing.Lock()
		landing.Unlock()
		if e := sess.Err(); e != nil {
			persist()
			sendStatus(false)
			return e
		}
		persister.markDone()
		if resumable {
			ls.RemoveLedger(session)
		}
		// The verdict is in before Done leaves: the sender's next Hello
		// on this connection finds the session ended, its admission slot
		// free, and the connection idle.
		sess.decide(true)
		r.mu.Lock()
		r.retireLocked(sess)
		if !r.closed {
			r.idle[raw] = struct{}{}
		}
		r.mu.Unlock()
		if err := sendStatus(true); err != nil {
			ctrl.Close()
			return err
		}
		return nil
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
