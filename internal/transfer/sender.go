package transfer

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"automdt/internal/env"
	"automdt/internal/flight"
	"automdt/internal/fsim"
	"automdt/internal/metrics"
	"automdt/internal/rate"
	"automdt/internal/wire"
	"automdt/internal/workload"
)

// Result summarizes a completed transfer.
type Result struct {
	// Duration is the wall time from Run start to receiver completion.
	Duration time.Duration
	// Bytes is the payload volume transferred by this run (for a resumed
	// session: the dataset minus the ranges the ledger already covered).
	Bytes int64
	// AvgMbps is the end-to-end goodput over the transferred bytes.
	AvgMbps float64
	// Controller names the optimizer that drove the run.
	Controller string
	// SessionID is the negotiated session identity.
	SessionID string
	// Resumed reports whether the receiver's ledger covered part of the
	// dataset before this run started.
	Resumed bool
	// SkippedBytes is the committed volume the planner skipped — data
	// that never crossed the wire again.
	SkippedBytes int64
	// WireBytes is the payload volume actually sent on the data
	// connections by this run (the figure the resume e2e test bounds).
	WireBytes int64
	// ResentBytes is the payload volume re-sent by striping recovery
	// after a data connection died mid-transfer: the lost chunks that
	// re-entered staging and crossed the wire again, through the network
	// stage, on a surviving connection. WireBytes includes it.
	ResentBytes int64
	// Recorder holds the per-tick concurrency and throughput traces
	// (series: cc_read, cc_conns, cc_streams, cc_net, cc_write, thr_read,
	// thr_net, thr_write), the raw material for the paper's figures. Each
	// rate is taken over the window since the previous tick; thr_read
	// and thr_net include a recovery's re-reads and re-sends.
	Recorder *metrics.Recorder
}

// errRunDone marks a data-plane operation that failed only because the
// receiver already confirmed completion — a benign race, not an error.
var errRunDone = errors.New("transfer: run already complete")

// errConnClosedByPeer is the cause recorded when the read-side death
// watch — not a failed write — notices a data connection is gone.
var errConnClosedByPeer = errors.New("transfer: data connection closed by peer")

// sendBatchChunks bounds how many staged chunks an unshaped network
// worker drains per iteration: the batch's frames share one vectored
// write.
const sendBatchChunks = 8

// Sender is the source-side engine: a resizable read pool stages chunks
// from the source store into a bounded buffer, and a resizable network
// pool ships them over parallel TCP connections. Each probe interval the
// Controller observes the state (thread counts, per-stage throughputs,
// free buffer space at both ends — exactly the §IV-D-1 state) and
// reassigns the concurrency tuple.
type Sender struct {
	Cfg        Config
	Store      fsim.Store
	Manifest   workload.Manifest
	Controller env.Controller // nil keeps InitialThreads fixed
	// Pool, when set, holds connections earlier sessions left open to
	// the same endpoint: Run takes them before dialing and gives its own
	// back after a clean end. nil, or a Cfg.WrapConn, dials and closes
	// every connection.
	Pool *ConnPool

	mu  sync.Mutex
	err error
}

// fail records a fatal error; the first one wins. A data-plane failure is
// recorded only after a LedgerPull round-trip has shown the receiver
// alive with no verdict of its own queued, so the first error is the
// root cause.
func (s *Sender) fail(err error) {
	s.mu.Lock()
	if s.err == nil && err != nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Err returns the first fatal sender-side error.
func (s *Sender) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// chunker hands out sequential chunk references over the manifest,
// skipping ranges the session ledger already covers (skip may be nil for
// a fresh plan), and counts each file's planned chunks down as they are
// read.
type chunker struct {
	mu    sync.Mutex
	files workload.Manifest
	chunk int64
	skip  *Ledger
	fi    int
	off   int64
	total int64          // planned (non-skipped) chunk count
	left  []atomic.Int64 // per file: planned chunks not yet read
}

func newChunker(m workload.Manifest, chunkBytes int, skip *Ledger) *chunker {
	c := &chunker{files: m, chunk: int64(chunkBytes), skip: skip, left: make([]atomic.Int64, len(m))}
	for i, f := range m {
		n := (f.Size + c.chunk - 1) / c.chunk
		if skip != nil {
			n -= skip.fileChunks(uint32(i))
		}
		c.left[i].Store(n)
		c.total += n
	}
	return c
}

// read counts one planned chunk of the file as read and reports whether
// it was the file's last.
func (c *chunker) read(fileID uint32) (last bool) {
	return c.left[fileID].Add(-1) == 0
}

// next returns the next planned chunk reference, or ok=false when
// exhausted.
func (c *chunker) next() (fileID uint32, off int64, n int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for c.fi < len(c.files) && c.off >= c.files[c.fi].Size {
			c.fi++
			c.off = 0
		}
		if c.fi >= len(c.files) {
			return 0, 0, 0, false
		}
		f := c.files[c.fi]
		size := c.chunk
		if c.off+size > f.Size {
			size = f.Size - c.off
		}
		fileID, off = uint32(c.fi), c.off
		c.off += size
		if c.skip != nil && c.skip.Done(fileID, off) {
			continue // committed in a previous attempt; not re-read
		}
		return fileID, off, int(size), true
	}
}

// fileSummer accumulates per-chunk CRCs on the sender and yields each
// file's combined end-to-end CRC-32C once every chunk of that file has
// been read this session. Files partially covered by a resumed ledger
// are not summed (their committed chunks are never re-read); their
// integrity rests on the receiver's ledger sums, which were verified by
// read-back when the session resumed.
type fileSummer struct {
	chunk int64
	mu    sync.Mutex
	files []sumState
}

type sumState struct {
	size int64
	sums []uint32 // nil when the file is not summable this session
	got  int
}

func newFileSummer(m workload.Manifest, chunkBytes int, resume *Ledger) *fileSummer {
	fs := &fileSummer{chunk: int64(chunkBytes), files: make([]sumState, len(m))}
	for i, f := range m {
		n := int((f.Size + fs.chunk - 1) / fs.chunk)
		st := sumState{size: f.Size}
		if resume.owesSum(uint32(i), f.Size) {
			st.sums = make([]uint32, n)
		}
		fs.files[i] = st
	}
	return fs
}

// add records one chunk's CRC. When the chunk completes its file, the
// whole-file CRC (per-chunk sums folded in order through CombineCRC) is
// returned with done=true.
func (fs *fileSummer) add(fileID uint32, off int64, sum uint32) (crc uint32, done bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st := &fs.files[fileID]
	if st.sums == nil {
		return 0, false
	}
	st.sums[off/fs.chunk] = sum
	st.got++
	if st.got < len(st.sums) {
		return 0, false
	}
	return wire.FoldChunkCRCs(st.sums, fs.chunk, st.size), true
}

// handshake sends the Hello on ctrl and waits, at most timeout, for the
// Welcome. stale reports a channel that died before the Welcome without
// a refusal, a timeout or a cancellation — what a pooled connection the
// peer closed while it sat idle does.
func handshake(ctx context.Context, ctrl *wire.Conn, hello wire.Message, timeout time.Duration) (w *wire.Welcome, stale bool, err error) {
	if err := ctrl.Send(hello); err != nil {
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		return nil, true, fmt.Errorf("transfer: send hello: %w", err)
	}
	hsTimer := time.AfterFunc(timeout, func() { ctrl.Close() })
	defer hsTimer.Stop()
	for {
		m, err := ctrl.Recv()
		if err != nil {
			if ctx.Err() != nil {
				return nil, false, ctx.Err()
			}
			if !hsTimer.Stop() {
				return nil, false, fmt.Errorf("transfer: no Welcome within %v", timeout)
			}
			return nil, true, fmt.Errorf("transfer: handshake: %w", err)
		}
		if m.Status != nil && m.Status.Error != "" {
			return nil, false, fmt.Errorf("transfer: receiver: %s", m.Status.Error)
		}
		if m.Welcome != nil {
			return m.Welcome, false, nil
		}
	}
}

// Run executes the transfer against a receiver listening at addr,
// returning when the receiver confirms completion. Control and data
// connections all dial addr. Run itself dials and handshakes; the rest
// of the run is a sendSession's stages. Run's goroutine carries the
// control stage's profile label while it runs, and ctx's labels again on
// return, as pprof.Do leaves them.
func (s *Sender) Run(ctx context.Context, addr string) (res *Result, err error) {
	pprof.SetGoroutineLabels(stageControl)
	defer pprof.SetGoroutineLabels(ctx)
	cfg := s.Cfg.WithDefaults()
	if h := cfg.Hooks.OnStart; h != nil {
		h()
	}
	// A session id the destination store would reject must fail loudly
	// here, not silently degrade to a non-resumable transfer.
	if cfg.SessionID != "" && !fsim.ValidSessionID(cfg.SessionID) {
		return nil, fmt.Errorf("transfer: invalid session id %q (want [A-Za-z0-9._-], ≤128 chars)", cfg.SessionID)
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// A wrapper may hold bytes past the session's end, so a session that
	// wraps its connections neither takes nor gives back pooled ones.
	pool := s.Pool
	if cfg.WrapConn != nil {
		pool = nil
	}

	// The initial tuple: Conns connections each carrying InitialThreads
	// streams, InitialThreads readers and writers — clamped to
	// MaxThreads like every tuple the controller picks later.
	initial := env.Action{N: [env.StageCount]int{
		env.StageRead:    cfg.InitialThreads,
		env.StageConns:   cfg.Conns,
		env.StageStreams: cfg.InitialThreads,
		env.StageWrite:   cfg.InitialThreads,
	}}.Clamp(cfg.MaxThreads)

	files := make([]wire.FileInfo, len(s.Manifest))
	for i, f := range s.Manifest {
		files[i] = wire.FileInfo{Name: f.Name, Size: f.Size}
	}
	hello := wire.Message{Hello: &wire.Hello{
		Files:            files,
		ChunkBytes:       cfg.ChunkBytes,
		InitialWriters:   initial.N[env.StageWrite],
		ReceiverBufBytes: cfg.ReceiverBufBytes,
		ProtoVersion:     wire.ProtoVersion,
		SessionID:        cfg.SessionID,
	}}
	// The receiver answers with its chunk ledger, from which this run
	// plans only the missing ranges. A deadline bounds a silent peer. A
	// fresh session's Welcome arrives within one RTT of the Hello; a
	// resume first re-reads and re-hashes every committed byte at the
	// destination, so the deadline scales with how much data a ledger
	// could cover.
	welcomeTimeout := 30 * time.Second
	if cfg.SessionID != "" {
		welcomeTimeout = 10 * time.Minute
	}
	var dialer net.Dialer
	var ctrl *wire.Conn
	var stopCtrlWatch func() bool
	var welcome *wire.Welcome
	for welcome == nil {
		// A pooled control connection first. One the peer closed while it
		// sat idle fails before the Welcome; it is dropped and the next
		// one tried, down to a fresh dial.
		ctrl = pool.takeCtrl()
		pooled := ctrl != nil
		if !pooled {
			raw, err := dialer.DialContext(ctx, "tcp", addr)
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				return nil, fmt.Errorf("transfer: dial control: %w", err)
			}
			if cfg.WrapConn != nil {
				raw = cfg.WrapConn("ctrl", raw)
			}
			ctrl = wire.NewConn(raw)
		}
		// A cancelled caller context must unblock every control-channel
		// operation — in particular the synchronous Welcome wait, where a
		// sender would otherwise hang between the control handshake and
		// the first data dial. The watch is on the parent only: an
		// internal failure (cancel()) must keep the channel open so the
		// receiver's root-cause report can still land.
		c := ctrl
		stopCtrlWatch = context.AfterFunc(parent, func() { c.Close() })
		var stale bool
		welcome, stale, err = handshake(ctx, ctrl, hello, welcomeTimeout)
		if err != nil {
			stopCtrlWatch()
			ctrl.Close()
			if !stale || !pooled {
				return nil, err
			}
		}
	}
	// A clean end gives the control connection back; every other end
	// closes it.
	clean := false
	defer func() {
		if clean && stopCtrlWatch() {
			pool.putCtrl(ctrl)
			return
		}
		stopCtrlWatch()
		ctrl.Close()
	}()
	if welcome.ProtoVersion != wire.ProtoVersion {
		return nil, fmt.Errorf("transfer: receiver speaks protocol %d, this sender speaks protocol %d only", welcome.ProtoVersion, wire.ProtoVersion)
	}
	// Every data connection must open with the endpoint's routing token,
	// or its frames land nowhere.
	if welcome.DataToken == "" {
		return nil, errors.New("transfer: receiver's Welcome carries no data token")
	}
	ss := &sendSession{
		s: s, cfg: cfg, ctx: ctx, cancel: cancel, ctrl: ctrl,
		pool: pool, addr: addr, token: welcome.DataToken,
	}
	ss.plan(welcome, initial.N[env.StageConns])
	defer func() { clean = ss.teardown(res, err) }()
	return ss.run(initial)
}

// sendSession is one run of a Sender past its handshake; its methods are
// the stages. Staging is the one hand-off from the read side to the
// network stage and stays open until teardown: a recovery re-reads a
// dead connection's lost chunks into it, so only network workers write
// frames, all under the same caps and counters.
type sendSession struct {
	s                           *Sender
	cfg                         Config
	ctx                         context.Context
	cancel                      context.CancelFunc
	ctrl                        *wire.Conn
	pool                        *ConnPool // nil: every connection is dialed and closed
	addr, token                 string    // the endpoint and its Welcome's data token
	sess                        Session
	chunkBytes                  int
	src                         *chunker
	summer                      *fileSummer
	readers                     *fileTable[fsim.FileReader]
	staging                     *Staging
	conns                       *connSet
	readPool, netPool           *Pool
	readPerThread, netPerStream *limiterSet
	readAgg, link               *rate.Limiter
	readCounter, netCounter     metrics.Counter             // the controller's per-tick rates
	status                      atomic.Pointer[wire.Status] // the receiver's latest
	netTotal, resentTotal       atomic.Int64                // Result.WireBytes and ResentBytes
	// doneCh closes on the receiver's Done; ctrlDone when the control
	// reader exits, having closed doneCh or recorded the session's error.
	doneCh, ctrlDone chan struct{}
	pullMu           sync.Mutex // guards pullWaiters, keyed by pull sequence
	pullWaiters      map[uint64]chan []wire.FileState
	pullSeq          uint64
	recMu            sync.Mutex // guards recClosed: no recovery starts once set
	recClosed        bool
	recoverWG        sync.WaitGroup
	streams, writers int // the control loop's own state from here on
	rec              *metrics.Recorder
	start, lastTick  time.Time
}

// abort records a fatal error (the first one wins) and cancels the run.
func (ss *sendSession) abort(err error) {
	ss.s.fail(err)
	ss.cancel()
}

// plan builds the run from the Welcome: the chunks its ledger does not
// cover, the file sums owed, the rate caps and the idle pools.
func (ss *sendSession) plan(welcome *wire.Welcome, conns int) {
	s, cfg := ss.s, ss.cfg
	ss.chunkBytes = cfg.ChunkBytes
	if welcome.ChunkBytes > 0 {
		ss.chunkBytes = welcome.ChunkBytes // a resumed ledger pins the geometry
	}
	var resume *Ledger
	var skipped int64
	if len(welcome.Ledger) > 0 {
		resume = NewLedger(welcome.SessionID, ss.chunkBytes, s.Manifest, false)
		resume.ApplyWire(welcome.Ledger)
		skipped = resume.CommittedBytes()
	}
	ss.sess = Session{ID: welcome.SessionID, Resumed: skipped > 0, TotalBytes: s.Manifest.TotalBytes(), SkippedBytes: skipped}
	if h := cfg.Hooks.OnSession; h != nil {
		h(ss.sess)
	}
	ss.src = newChunker(s.Manifest, ss.chunkBytes, resume)
	// End-to-end file sums, announced as reads complete. The receiver
	// derives the same set of owed files from the ledger it advertised.
	ss.summer = newFileSummer(s.Manifest, ss.chunkBytes, resume)
	// A source file is open while planned chunks of it are being read,
	// and closed after its last one.
	ss.readers = newFileTable(len(s.Manifest), func(id uint32) (fsim.FileReader, error) {
		return s.Store.Open(s.Manifest[id].Name, s.Manifest[id].Size)
	})
	ss.staging = NewStaging(cfg.SenderBufBytes)
	ss.readPerThread = newLimiterSet(cfg.Shaping.ReadPerThreadMbps, cfg.ChunkBytes)
	ss.readAgg = newLimiter(cfg.Shaping.ReadAggMbps, cfg.ChunkBytes)
	ss.netPerStream = newLimiterSet(cfg.Shaping.NetPerStreamMbps, cfg.ChunkBytes)
	ss.link = newLimiter(cfg.Shaping.LinkMbps, cfg.ChunkBytes)
	ss.status.Store(new(wire.Status))
	ss.doneCh, ss.ctrlDone = make(chan struct{}), make(chan struct{})
	ss.pullWaiters = make(map[uint64]chan []wire.FileState)
	ss.conns = newConnSet(conns, ss.dialData, cfg.Hooks.OnDataConn)
	ss.readPool = NewPool(ss.readWorker)
	ss.netPool = NewPool(ss.netWorker)
}

// readWorker is one read-stage worker: it reads the next planned chunk
// under its own cap, announces any file sum the read completes, and
// stages the chunk.
func (ss *sendSession) readWorker(stop <-chan struct{}, id int) {
	pprof.SetGoroutineLabels(stageRead)
	lim := ss.readPerThread.get(id)
	for {
		select {
		case <-stop:
			return
		case <-ss.ctx.Done():
			return
		default:
		}
		fileID, off, n, ok := ss.src.next()
		if !ok || lim.WaitN(ss.ctx, n) != nil {
			return
		}
		ch, ok := ss.readChunk(fileID, off, n, true)
		if !ok {
			return
		}
		if crc, done := ss.summer.add(fileID, off, ch.Sum); done {
			// A failed send ends the control reader, which owns the
			// verdict.
			ss.ctrl.Send(wire.Message{FileSum: &wire.FileSum{FileID: fileID, CRC: crc}})
		}
		if !ss.staging.Put(ch) {
			ch.Release()
			return
		}
	}
}

// readChunk is the read stage's one read, planned or a recovery's: the
// aggregate read cap, one arena lease, one ReadAt, one hash (the frame
// checksum, also folded into the file sum). A planned read counts down
// its file's chunks so the file closes after its last; a re-read reopens
// a closed file and closes it again. ok is false when the run is coming
// down, and after a failed open or read, which aborts the run.
func (ss *sendSession) readChunk(fileID uint32, off int64, n int, planned bool) (ch Chunk, ok bool) {
	if ss.readAgg.WaitN(ss.ctx, n) != nil {
		return Chunk{}, false
	}
	r, err := ss.readers.acquire(fileID)
	if err != nil {
		ss.abort(err)
		return Chunk{}, false
	}
	// The lease rides the chunk through staging and is released by the
	// network worker after the frame hits the wire.
	buf := ss.cfg.arena().Get(n)
	span := flight.StageStart()
	if _, err := r.ReadAt(buf.Bytes(), off); err != nil {
		ss.readers.release(fileID, false)
		buf.Release()
		ss.abort(fmt.Errorf("transfer: read %s@%d: %w", ss.s.Manifest[fileID].Name, off, err))
		return Chunk{}, false
	}
	flight.StageEnd(flight.StageRead, span)
	// A source close error cannot harm the bytes already read.
	ss.readers.release(fileID, planned && ss.src.read(fileID))
	wire.CountIOOps(1)
	ss.readCounter.Add(int64(n))
	return Chunk{FileID: fileID, Offset: off, Data: buf.Bytes(), Buf: buf, Sum: wire.PayloadCRC(buf.Bytes())}, true
}

// netWorker is one network-stage worker: it drains staged chunks, paces
// each through its stream's and the link's cap, and sends them as one
// vectored write. An empty buffer parks it (no timer) until a Put, its
// stop, the context or teardown's Close. A shaped network stage stays
// chunk-at-a-time: rate-bound sends gain nothing from batching, which
// would lump the paced writes into end-of-window bursts.
func (ss *sendSession) netWorker(stop <-chan struct{}, id int) {
	pprof.SetGoroutineLabels(stageNetTx)
	lim := ss.netPerStream.get(id)
	drain := sendBatchChunks
	if ss.cfg.Shaping.NetPerStreamMbps > 0 || ss.cfg.Shaping.LinkMbps > 0 {
		drain = 1
	}
	var batch []Chunk
	var frames []wire.Frame
	for {
		select {
		case <-stop:
			return
		case <-ss.ctx.Done():
			return
		default:
		}
		batch, _ = ss.staging.GetN(batch[:0], drain, stop, ss.ctx.Done())
		if len(batch) == 0 {
			return
		}
		// Reserve shaping tokens chunk by chunk, not one batch-sized
		// debt; only the writes are batched.
		var total, resent int64
		frames = frames[:0]
		for i := range batch {
			ch := &batch[i]
			sz := len(ch.Data)
			if lim.WaitN(ss.ctx, sz) != nil || ss.link.WaitN(ss.ctx, sz) != nil {
				releaseAll(batch)
				return // limiter wait cancelled: the run is coming down
			}
			total += int64(sz)
			if ch.resent {
				resent += int64(sz)
			}
			frames = append(frames, wire.Frame{
				FileID: ch.FileID, Offset: ch.Offset, Data: ch.Data,
				Sum: ch.Sum, SumKnown: true,
			})
		}
		span := flight.StageStart()
		err := ss.sendFrames(frames, id)
		flight.StageEnd(flight.StageNet, span)
		releaseAll(batch)
		if err != nil {
			if !errors.Is(err, errRunDone) {
				ss.abort(fmt.Errorf("transfer: send frame: %w", err))
			}
			return
		}
		ss.netCounter.Add(total)
		ss.netTotal.Add(total)
		ss.resentTotal.Add(resent)
	}
}

// sendFrames writes frames as one vectored write on worker hint's
// connection. A write failure retires the connection, hands its sent
// history to a recovery, and retries the batch on a survivor (the
// receiver drops any duplicate that did land). Only a session with no
// live connection left fails, and only after a ledger pull: every
// connection closing is also how a finished or failed receiver looks
// from the data plane, and the pull lets its verdict land first.
func (ss *sendSession) sendFrames(frames []wire.Frame, hint int) error {
	for {
		c := ss.conns.pick(hint)
		if c == nil {
			if _, err := ss.pullLedger(); err != nil {
				return err
			}
			return errConnsExhausted
		}
		err := ss.conns.writeBatch(c, frames)
		if err == nil {
			return nil
		}
		if errors.Is(err, errRunDone) {
			return err
		}
		if ss.conns.markDead(c) {
			ss.spawnRecovery(c, err)
		}
		if ss.ctx.Err() != nil {
			return ss.ctx.Err()
		}
	}
}

// dialData connects data slot index: a pooled connection first, then a
// dial with a short retry, since a dial prompted by a late grow can lose
// the race with a finished receiver's close. The connection's death
// watch reports to connGone.
func (ss *sendSession) dialData(index int) (net.Conn, error) {
	onGone := func() { ss.connGone(index) }
	for sock := ss.pool.takeData(onGone); sock != nil; sock = ss.pool.takeData(onGone) {
		if conn, err := ss.openData(sock); err == nil {
			return conn, nil
		}
	}
	var dialer net.Dialer
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			select {
			case <-ss.doneCh:
				return nil, errRunDone
			case <-ss.ctx.Done():
				return nil, ss.ctx.Err()
			case <-time.After(time.Duration(attempt) * 5 * time.Millisecond):
			}
		}
		raw, err := dialer.DialContext(ss.ctx, "tcp", ss.addr)
		if err != nil {
			lastErr = err
			continue
		}
		conn, err := ss.openData(watchData(raw.(*net.TCPConn), onGone))
		if err != nil {
			lastErr = err
			continue
		}
		return conn, nil
	}
	select {
	case <-ss.doneCh:
		return nil, errRunDone
	default:
	}
	return nil, fmt.Errorf("transfer: dial data: %w", lastErr)
}

// openData writes the session's preamble on a connection wrapped for
// this session; the endpoint routes the stream to it by token.
func (ss *sendSession) openData(sock *dataSock) (net.Conn, error) {
	var conn net.Conn = sock
	if ss.cfg.WrapConn != nil {
		conn = ss.cfg.WrapConn("data", sock)
	}
	if err := wire.WriteDataPreamble(conn, ss.token); err != nil {
		sock.disown() // a connection that never served the slot
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// connGone is the read-side death watch: a receiver that drops a data
// connection after every pending write drained into the socket buffer
// leaves no later write to fail, and without it the lost chunks would
// never be re-planned. A connection retired by a failed write fires it
// too; markDead makes that a no-op.
func (ss *sendSession) connGone(index int) {
	if c := ss.conns.slot(index); ss.conns.markDead(c) {
		ss.spawnRecovery(c, errConnClosedByPeer)
	}
}

// spawnRecovery starts a recovery unless teardown has disarmed them:
// the death watch fires for every socket teardown closes.
func (ss *sendSession) spawnRecovery(c *dataConn, cause error) {
	ss.recMu.Lock()
	defer ss.recMu.Unlock()
	if ss.recClosed {
		return
	}
	ss.recoverWG.Add(1)
	go ss.recoverConn(c, cause)
}

// recoverConn re-plans a dead connection's in-flight chunks: it pulls
// the receiver's ledger, subtracts the committed chunks, and re-reads
// the rest into staging, marked as re-sends, for the network stage.
func (ss *sendSession) recoverConn(c *dataConn, cause error) {
	defer ss.recoverWG.Done()
	pprof.SetGoroutineLabels(stageRead) // a re-read is read-stage work
	history := c.takeHistory()
	lost := history
	if len(history) > 0 {
		states, err := ss.pullLedger()
		if err != nil {
			// The run is done or cancelled, or the control reader has
			// recorded the verdict. A completed receiver sends Done
			// before it closes its data connections, so this is also
			// how a finished session's death-watch recoveries end.
			return
		}
		committed := NewLedger(ss.sess.ID, ss.chunkBytes, ss.s.Manifest, false)
		committed.ApplyWire(states)
		kept := history[:0]
		for _, cr := range history {
			if !committed.Done(cr.fileID, cr.off) {
				kept = append(kept, cr)
			}
		}
		lost = kept
	}
	if flight.Active() {
		var bytes int64
		for _, cr := range lost {
			bytes += int64(cr.n)
		}
		flight.Record(flight.Event{
			Source: "sender:" + ss.sess.ID,
			Kind:   flight.KindReplan,
			Chosen: flight.Alt{Score: float64(bytes)},
			Note: fmt.Sprintf("conn %d lost (%v): %d in-flight sends, %d still uncommitted",
				c.index, cause, len(history), len(lost)),
		})
	}
	for _, cr := range lost {
		ch, ok := ss.readChunk(cr.fileID, cr.off, int(cr.n), false)
		if !ok {
			return
		}
		ch.resent = true
		if !ss.staging.Put(ch) {
			ch.Release()
			return
		}
	}
}

// pullLedger asks the receiver which chunks have committed. It answers
// from the loop that sends its verdict and stops once it has, so on the
// ordered control channel a reply proves the receiver alive with no Done
// or error queued ahead of it. Without a reply the pull returns the
// control reader's verdict: errRunDone or the recorded error.
func (ss *sendSession) pullLedger() ([]wire.FileState, error) {
	ss.pullMu.Lock()
	ss.pullSeq++
	seq := ss.pullSeq
	ch := make(chan []wire.FileState, 1)
	ss.pullWaiters[seq] = ch
	ss.pullMu.Unlock()
	defer func() {
		ss.pullMu.Lock()
		delete(ss.pullWaiters, seq)
		ss.pullMu.Unlock()
	}()
	// A failed send needs no handling of its own: a broken channel
	// always ends the control reader.
	ss.ctrl.Send(wire.Message{LedgerPull: &wire.LedgerPull{Seq: seq}})
	select {
	case states := <-ch:
		return states, nil
	case <-ss.ctrlDone:
		select {
		case <-ss.doneCh:
			return nil, errRunDone
		default:
			return nil, ss.s.Err()
		}
	case <-ss.ctx.Done():
		return nil, ss.ctx.Err()
	}
}

// readControl is the control channel's one reader: statuses, ledger-pull
// replies and the verdict. It alone decides a receiver-side outcome:
// Done, an errored Status, or a channel that ends with neither.
func (ss *sendSession) readControl() {
	defer close(ss.ctrlDone)
	for {
		m, err := ss.ctrl.Recv()
		if err != nil {
			ss.abort(fmt.Errorf("transfer: control channel: %w", err))
			return
		}
		if m.LedgerState != nil {
			// Route a ledger-pull reply to its waiting recovery.
			ss.pullMu.Lock()
			if ch, ok := ss.pullWaiters[m.LedgerState.Seq]; ok {
				ch <- m.LedgerState.Ledger
			}
			ss.pullMu.Unlock()
			continue
		}
		if m.Status == nil {
			continue
		}
		ss.status.Store(m.Status)
		if m.Status.Error != "" {
			ss.abort(fmt.Errorf("transfer: receiver: %s", m.Status.Error))
			return
		}
		if m.Status.Done {
			close(ss.doneCh)
			return
		}
	}
}

// run starts the control reader and the stages at the initial tuple, then
// each probe interval records the state and applies the controller's
// tuple, until the receiver's Done or the run's failure.
func (ss *sendSession) run(initial env.Action) (*Result, error) {
	cfg := ss.cfg
	go ss.readControl()
	ss.readPool.Resize(initial.N[env.StageRead])
	ss.streams = initial.N[env.StageStreams]
	ss.netPool.Resize(ss.conns.size() * ss.streams)
	ss.writers = initial.N[env.StageWrite]

	ss.rec = metrics.NewRecorder()
	ss.start = time.Now()
	ss.lastTick = ss.start
	ticker := time.NewTicker(cfg.ProbeInterval)
	defer ticker.Stop()

	ctrlName := "fixed"
	if ss.s.Controller != nil {
		ctrlName = ss.s.Controller.Name()
	}
	// The flight wrap is decided once per run (one atomic load), so a
	// disabled recorder adds nothing to the probe loop. The source is
	// keyed by session ID: a resumed attempt appends to the prior
	// attempt's ring.
	decider := ss.s.Controller
	if decider != nil && flight.Active() {
		decider = flight.WrapController(decider, flight.Default(), "ctrl:"+ss.sess.ID)
	}

	for {
		select {
		case <-ss.ctx.Done():
			if err := ss.s.Err(); err != nil {
				return nil, err
			}
			return nil, ss.ctx.Err()
		case <-ss.doneCh:
			ss.record()
			d := time.Since(ss.start)
			planned := ss.sess.TotalBytes - ss.sess.SkippedBytes
			return &Result{
				Duration:     d,
				Bytes:        planned,
				AvgMbps:      bytesToMb(planned) / d.Seconds(),
				Controller:   ctrlName,
				SessionID:    ss.sess.ID,
				Resumed:      ss.sess.Resumed,
				SkippedBytes: ss.sess.SkippedBytes,
				Recorder:     ss.rec,
			}, ss.s.Err()
		case <-ticker.C:
			state := ss.record()
			if decider == nil {
				continue
			}
			act := decider.Decide(state).Clamp(cfg.MaxThreads)
			ss.readPool.Resize(act.N[env.StageRead])
			ss.conns.setWant(act.N[env.StageConns])
			ss.streams = act.N[env.StageStreams]
			ss.netPool.Resize(act.N[env.StageConns] * ss.streams)
			if act.N[env.StageWrite] != ss.writers {
				ss.writers = act.N[env.StageWrite]
				// A failed send ends the control reader, which owns the
				// verdict: a finished receiver may already have closed
				// the channel after its Done.
				ss.ctrl.Send(wire.Message{SetWriters: &wire.SetWriters{N: ss.writers}})
			}
		}
	}
}

// record samples the §IV-D-1 state — thread counts, the read and network
// rates over the window since the previous sample, the receiver's last
// write rate, free buffer space at both ends — into the recorder and the
// tick and progress hooks.
func (ss *sendSession) record() env.State {
	now := time.Now()
	t := now.Sub(ss.start).Seconds()
	dt := now.Sub(ss.lastTick).Seconds()
	ss.lastTick = now
	st := ss.status.Load()
	state := env.State{
		N: [env.StageCount]int{
			env.StageRead:    ss.readPool.Size(),
			env.StageConns:   ss.conns.size(),
			env.StageStreams: ss.streams,
			env.StageWrite:   ss.writers,
		},
		Throughput: env.ThroughputVec(
			bytesToMb(ss.readCounter.Reset())/dt,
			bytesToMb(ss.netCounter.Reset())/dt,
			st.WriteMbps,
		),
		SenderFree:   bytesToMb(ss.staging.Free()),
		ReceiverFree: bytesToMb(st.BufFree),
	}
	for stage, name := range [env.StageCount]string{"cc_read", "cc_conns", "cc_streams", "cc_write"} {
		ss.rec.Series(name).Record(t, float64(state.N[stage]))
	}
	ss.rec.Series("cc_net").Record(t, float64(ss.netPool.Size()))
	ss.rec.Series("thr_read").Record(t, state.Throughput[env.StageRead])
	ss.rec.Series("thr_net").Record(t, state.Throughput[env.StageConns])
	ss.rec.Series("thr_write").Record(t, state.Throughput[env.StageWrite])
	if h := ss.cfg.Hooks.OnTick; h != nil {
		h(state)
	}
	if h := ss.cfg.Hooks.OnProgress; h != nil {
		h(st.CommittedBytes, ss.sess.TotalBytes)
	}
	return state
}

// teardown winds the run down and reports whether it ended cleanly: the
// receiver's Done, no sender-side error, the control reader gone.
// Recoveries are disarmed and network workers stopped first, so nothing
// is sent after the verdict; closing staging then wakes readers and
// recoveries blocked in Put before anything waits on them. Connections
// close, or go back to the pool after a clean end, only once all have
// wound down — at a frame boundary, where a close reads as a clean
// end-of-stream and a pooled connection's next preamble rebinds it. The
// wire counters are read last: the receiver's Done can overtake the
// counter update of the batch that completed the session.
func (ss *sendSession) teardown(res *Result, err error) (clean bool) {
	ss.recMu.Lock()
	ss.recClosed = true
	ss.recMu.Unlock()
	ss.netPool.Resize(0)
	ss.staging.Close()
	ss.recoverWG.Wait()
	ss.readPool.Shutdown()
	ss.netPool.Shutdown()
	ss.staging.ReleaseRemaining()
	clean = err == nil && res != nil && ss.s.Err() == nil
	if clean {
		<-ss.ctrlDone
		ss.conns.finish(ss.pool)
	} else {
		ss.conns.finish(nil)
	}
	if res != nil {
		res.WireBytes, res.ResentBytes = ss.netTotal.Load(), ss.resentTotal.Load()
	}
	ss.readers.closeAll()
	return clean
}
