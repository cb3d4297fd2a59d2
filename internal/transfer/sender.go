package transfer

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"automdt/internal/env"
	"automdt/internal/flight"
	"automdt/internal/fsim"
	"automdt/internal/metrics"
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
	// after a data connection died mid-transfer: the lost chunks that had
	// to cross the wire again on a surviving connection.
	ResentBytes int64
	// Recorder holds the per-tick concurrency and throughput traces
	// (series: cc_read, cc_conns, cc_streams, cc_net, cc_write, thr_read,
	// thr_net, thr_write), the raw material for the paper's figures.
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

	mu         sync.Mutex
	err        error
	lastStatus wire.Status
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

func (s *Sender) status() wire.Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastStatus
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
		if n > 0 && (resume == nil || resume.FileCommitted(uint32(i)) == 0) {
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
// connections all dial addr.
func (s *Sender) Run(ctx context.Context, addr string) (res *Result, err error) {
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
	dataToken := welcome.DataToken
	if dataToken == "" {
		return nil, errors.New("transfer: receiver's Welcome carries no data token")
	}
	chunkBytes := cfg.ChunkBytes
	if welcome.ChunkBytes > 0 {
		chunkBytes = welcome.ChunkBytes // a resumed ledger pins the geometry
	}

	total := s.Manifest.TotalBytes()
	var resume *Ledger
	var skipped int64
	if len(welcome.Ledger) > 0 {
		resume = NewLedger(welcome.SessionID, chunkBytes, s.Manifest, false)
		resume.ApplyWire(welcome.Ledger)
		skipped = resume.CommittedBytes()
	}
	sess := Session{
		ID:           welcome.SessionID,
		Resumed:      skipped > 0,
		TotalBytes:   total,
		SkippedBytes: skipped,
	}
	if h := cfg.Hooks.OnSession; h != nil {
		h(sess)
	}
	planned := total - skipped

	staging := NewStaging(cfg.SenderBufBytes)
	src := newChunker(s.Manifest, chunkBytes, resume)

	// End-to-end file sums, announced as reads complete. The receiver
	// derives the same set of owed files from the ledger it advertised.
	summer := newFileSummer(s.Manifest, chunkBytes, resume)

	// A source file is open while planned chunks of it are being read,
	// and closed after its last one.
	readers := newFileTable(len(s.Manifest), func(id uint32) (fsim.FileReader, error) {
		return s.Store.Open(s.Manifest[id].Name, s.Manifest[id].Size)
	})
	defer readers.closeAll()

	var readCounter, netCounter metrics.Counter
	var netTotal, resentTotal atomic.Int64
	var chunksStaged atomic.Int64
	arena := cfg.arena()
	readPerThread := newLimiterSet(cfg.Shaping.ReadPerThreadMbps, cfg.ChunkBytes)
	readAgg := newLimiter(cfg.Shaping.ReadAggMbps, cfg.ChunkBytes)
	netPerStream := newLimiterSet(cfg.Shaping.NetPerStreamMbps, cfg.ChunkBytes)
	link := newLimiter(cfg.Shaping.LinkMbps, cfg.ChunkBytes)

	readPool := NewPool(func(stop <-chan struct{}, id int) {
		lim := readPerThread.get(id)
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			default:
			}
			fileID, off, n, ok := src.next()
			if !ok {
				return
			}
			if err := lim.WaitN(ctx, n); err != nil {
				return
			}
			if err := readAgg.WaitN(ctx, n); err != nil {
				return
			}
			r, err := readers.acquire(fileID)
			if err != nil {
				s.fail(err)
				cancel()
				return
			}
			// One arena lease per chunk, full and tail sizes alike; the
			// lease rides the chunk through staging and is released by the
			// network worker after the frame hits the wire.
			buf := arena.Get(n)
			span := flight.StageStart()
			if _, err := r.ReadAt(buf.Bytes(), off); err != nil {
				readers.release(fileID, false)
				buf.Release()
				s.fail(fmt.Errorf("transfer: read %s@%d: %w", s.Manifest[fileID].Name, off, err))
				cancel()
				return
			}
			flight.StageEnd(flight.StageRead, span)
			// A source close error cannot harm the bytes already read.
			readers.release(fileID, src.read(fileID))
			wire.CountIOOps(1)
			readCounter.Add(int64(n))
			// One hash per chunk: it is the frame checksum and feeds the
			// file fold, so the payload is never hashed twice here.
			sum := wire.PayloadCRC(buf.Bytes())
			if crc, done := summer.add(fileID, off, sum); done {
				// A failed send ends the control reader, which owns the
				// verdict.
				ctrl.Send(wire.Message{FileSum: &wire.FileSum{FileID: fileID, CRC: crc}})
			}
			if !staging.Put(Chunk{FileID: fileID, Offset: off, Data: buf.Bytes(), Buf: buf, Sum: sum}) {
				buf.Release()
				return
			}
			if chunksStaged.Add(1) == src.total {
				staging.Close() // all chunks staged; network drains the rest
			}
		}
	})
	if src.total == 0 {
		// Nothing left to plan (empty dataset or a fully committed
		// resume): close the intake so the data plane drains to the end
		// markers immediately.
		staging.Close()
	}

	// doneCh closes when the receiver confirms completion; ctrlDone closes
	// when the control reader exits, by which time it has either closed
	// doneCh or recorded the session's error. Declared before the data
	// plane because every dial and recovery path consults them.
	doneCh := make(chan struct{})
	ctrlDone := make(chan struct{})

	// Striped data plane: the chunk stream fans out over a resizable set
	// of parallel data connections. dialData takes a pooled connection
	// first, then dials, with the listener-race retry the single-conn
	// engine had: the receiver closes its listener the moment the
	// transfer completes, so a dial prompted by a late grow can lose that
	// race without anything being wrong. Every connection's death watch
	// reports to onConnGone with the slot it serves.
	var onConnGone func(index int)
	dialData := func(index int) (net.Conn, error) {
		onGone := func() { onConnGone(index) }
		// open writes the session's preamble, before its first frame, on
		// a connection wrapped for this session; the endpoint routes the
		// stream to this session by token.
		open := func(sock *dataSock) (net.Conn, error) {
			var conn net.Conn = sock
			if cfg.WrapConn != nil {
				conn = cfg.WrapConn("data", sock)
			}
			if err := wire.WriteDataPreamble(conn, dataToken); err != nil {
				sock.disown() // a connection that never served the slot
				conn.Close()
				return nil, err
			}
			return conn, nil
		}
		for sock := pool.takeData(onGone); sock != nil; sock = pool.takeData(onGone) {
			if conn, err := open(sock); err == nil {
				return conn, nil
			}
		}
		var lastErr error
		for attempt := 0; attempt < 5; attempt++ {
			if attempt > 0 {
				select {
				case <-doneCh:
					return nil, errRunDone
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(time.Duration(attempt) * 5 * time.Millisecond):
				}
			}
			raw, err := dialer.DialContext(ctx, "tcp", addr)
			if err != nil {
				lastErr = err
				continue
			}
			conn, err := open(watchData(raw.(*net.TCPConn), onGone))
			if err != nil {
				lastErr = err
				continue
			}
			return conn, nil
		}
		select {
		case <-doneCh:
			return nil, errRunDone
		default:
		}
		return nil, fmt.Errorf("transfer: dial data: %w", lastErr)
	}
	conns := newConnSet(initial.N[env.StageConns], dialData, cfg.Hooks.OnDataConn)

	// Mid-transfer ledger pulls: when a striped connection dies, recovery
	// asks the receiver which chunks already committed so only the truly
	// lost ones are re-sent. Replies are routed back to their waiting pull
	// by sequence number. The receiver answers from the loop that sends
	// its verdict and stops answering once it has, so on the ordered
	// control channel a reply proves the receiver alive with no Done or
	// error queued ahead of it. Without a reply the pull returns the
	// control reader's verdict: errRunDone or the recorded error.
	var pullMu sync.Mutex
	pullWaiters := make(map[uint64]chan []wire.FileState)
	var pullSeq uint64
	pullLedger := func() ([]wire.FileState, error) {
		pullMu.Lock()
		pullSeq++
		seq := pullSeq
		ch := make(chan []wire.FileState, 1)
		pullWaiters[seq] = ch
		pullMu.Unlock()
		defer func() {
			pullMu.Lock()
			delete(pullWaiters, seq)
			pullMu.Unlock()
		}()
		// A failed send needs no handling of its own: a broken channel
		// always ends the control reader.
		ctrl.Send(wire.Message{LedgerPull: &wire.LedgerPull{Seq: seq}})
		select {
		case states := <-ch:
			return states, nil
		case <-ctrlDone:
			select {
			case <-doneCh:
				return nil, errRunDone
			default:
				return nil, s.Err()
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	// sendFrames stripes a batch of frames, as one vectored write, onto
	// one of the live connections: a write failure retires the failed
	// connection, hands its sent history to a recovery goroutine, and
	// retries the whole in-hand batch on a surviving connection (the
	// receiver drops any duplicate that did land). Only a session with no
	// live connection left fails, and only after a ledger pull: every
	// connection closing is also how a finished or failed receiver looks
	// from the data plane, and the pull lets its verdict land first.
	var recoverWG sync.WaitGroup
	var sendFrames func(frames []wire.Frame, hint int) error
	var recoverConn func(c *dataConn, cause error)
	// spawnRecovery starts a recovery goroutine unless the run is already
	// winding down — the read-side death watch can fire while closeAll
	// tears the sockets down, after recoverWG has been waited on.
	var recMu sync.Mutex
	var recClosed bool
	spawnRecovery := func(c *dataConn, cause error) {
		recMu.Lock()
		defer recMu.Unlock()
		if recClosed {
			return
		}
		recoverWG.Add(1)
		go recoverConn(c, cause)
	}
	sendFrames = func(frames []wire.Frame, hint int) error {
		for {
			c := conns.pick(hint)
			if c == nil {
				if _, err := pullLedger(); err != nil {
					return err
				}
				return errConnsExhausted
			}
			err := conns.writeBatch(c, frames)
			if err == nil {
				return nil
			}
			if errors.Is(err, errRunDone) {
				return err
			}
			if conns.markDead(c) {
				spawnRecovery(c, err)
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
	}
	// recoverConn re-plans a dead connection's in-flight chunks: pull the
	// receiver's ledger, subtract the committed chunks, re-read the rest
	// straight from the source store, and re-stripe them over the
	// surviving connections. The staged data plane is untouched —
	// recovery bypasses the staging buffer, which may already be closed
	// by the time a loss is noticed.
	recoverConn = func(c *dataConn, cause error) {
		defer recoverWG.Done()
		history := c.takeHistory()
		lost := history
		if len(history) > 0 {
			states, err := pullLedger()
			if err != nil {
				// The run is done or cancelled, or the control reader has
				// recorded the verdict. A completed receiver sends Done
				// before it closes its data connections, so this is also
				// how a finished session's death-watch recoveries end.
				return
			}
			committed := NewLedger(sess.ID, chunkBytes, s.Manifest, false)
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
				Source: "sender:" + sess.ID,
				Kind:   flight.KindReplan,
				Chosen: flight.Alt{Score: float64(bytes)},
				Note: fmt.Sprintf("conn %d lost (%v): %d in-flight sends, %d still uncommitted",
					c.index, cause, len(history), len(lost)),
			})
		}
		for _, cr := range lost {
			select {
			case <-doneCh:
				return
			case <-ctx.Done():
				return
			default:
			}
			// The file may be closed by now: this reopens it, and the
			// release closes it again if its planned reads are all done.
			r, err := readers.acquire(cr.fileID)
			if err != nil {
				s.fail(err)
				cancel()
				return
			}
			buf := arena.Get(int(cr.n))
			_, err = r.ReadAt(buf.Bytes(), cr.off)
			readers.release(cr.fileID, false)
			if err != nil {
				buf.Release()
				s.fail(fmt.Errorf("transfer: re-read %s@%d after connection loss: %w",
					s.Manifest[cr.fileID].Name, cr.off, err))
				cancel()
				return
			}
			f := [1]wire.Frame{{FileID: cr.fileID, Offset: cr.off, Data: buf.Bytes()}}
			err = sendFrames(f[:], -1)
			n := int64(cr.n)
			buf.Release()
			if err != nil {
				if errors.Is(err, errRunDone) {
					return
				}
				s.fail(fmt.Errorf("transfer: data connection %d lost (%v) and re-plan failed: %w",
					c.index, cause, err))
				cancel()
				return
			}
			netTotal.Add(n)
			resentTotal.Add(n)
		}
	}

	// The read-side death watch: a receiver that drops a data connection
	// (checksum failure, injected fault) after every pending write
	// already drained into the socket buffer leaves no later write to
	// fail, so without the watch the lost in-flight chunks would never be
	// re-planned and the session would stall waiting for commits. A
	// connection retired here fires it too; markDead makes that a no-op.
	onConnGone = func(index int) {
		if c := conns.slot(index); conns.markDead(c) {
			spawnRecovery(c, errConnClosedByPeer)
		}
	}

	// The network stage drains batches so their frames share one vectored
	// write. A shaped network stage stays chunk-at-a-time: rate-bound
	// sends gain nothing from syscall batching, and batching would lump
	// the paced writes into end-of-window bursts.
	drain := sendBatchChunks
	if cfg.Shaping.NetPerStreamMbps > 0 || cfg.Shaping.LinkMbps > 0 {
		drain = 1
	}

	netPool := NewPool(func(stop <-chan struct{}, id int) {
		lim := netPerStream.get(id)
		var batch []Chunk
		var frames []wire.Frame
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			default:
			}
			// An empty buffer parks the worker (no timer) until a Put or
			// Close, its stop, or the context: all but a Put end it.
			batch, _ = staging.GetN(batch[:0], drain, stop, ctx.Done())
			if len(batch) == 0 {
				return
			}
			// Reserve shaping tokens chunk by chunk, not one batch-sized
			// debt; only the writes are batched.
			var total int64
			frames = frames[:0]
			for i := range batch {
				ch := &batch[i]
				sz := len(ch.Data)
				if lim.WaitN(ctx, sz) != nil || link.WaitN(ctx, sz) != nil {
					releaseAll(batch)
					return // limiter wait cancelled: the run is coming down
				}
				total += int64(sz)
				frames = append(frames, wire.Frame{
					FileID: ch.FileID, Offset: ch.Offset, Data: ch.Data,
					Sum: ch.Sum, SumKnown: true,
				})
			}
			span := flight.StageStart()
			err := sendFrames(frames, id)
			flight.StageEnd(flight.StageNet, span)
			releaseAll(batch)
			if err != nil {
				if errors.Is(err, errRunDone) {
					return
				}
				s.fail(fmt.Errorf("transfer: send frame: %w", err))
				cancel()
				return
			}
			netCounter.Add(total)
			netTotal.Add(total)
		}
	})
	// Cleanup order matters: closing the staging buffer first wakes
	// readers blocked in Put so the pool shutdowns cannot deadlock. Once
	// both pools have exited, any chunks stranded in staging (aborted
	// transfer) return their arena leases. Connections close, or go back
	// to the pool, only after every recovery has wound down — at a frame
	// boundary, where a close reads as a clean end-of-stream at the
	// receiver and a pooled connection's next preamble rebinds it. Only a
	// clean end gives connections back: the receiver's Done, no
	// sender-side error, and the control reader gone.
	//
	// The wire counters are read last, once every network worker and
	// recovery has exited: the receiver's Done can overtake the counter
	// update of the batch that completed the session.
	defer func() {
		if res != nil {
			res.WireBytes, res.ResentBytes = netTotal.Load(), resentTotal.Load()
		}
	}()
	defer func() {
		clean = err == nil && res != nil && s.Err() == nil
		if !clean {
			conns.finish(nil)
			return
		}
		<-ctrlDone
		conns.finish(pool)
	}()
	defer func() {
		staging.Close()
		readPool.Shutdown()
		netPool.Shutdown()
		staging.ReleaseRemaining()
	}()
	// Recovery goroutines may outlive the workers that spawned them; they
	// must finish (or observe completion/cancellation) before the source
	// files and the connections are closed. Disarm spawning first (LIFO):
	// the death watch fires for every socket finish tears down, and a
	// recovery started after the Wait would race the teardown.
	defer recoverWG.Wait()
	defer func() {
		recMu.Lock()
		recClosed = true
		recMu.Unlock()
	}()

	// Control reader: receiver statuses, ledger-pull replies and the
	// session's verdict. It is the only place a receiver-side outcome is
	// decided: Done, an errored Status, or a channel that ends with
	// neither.
	go func() {
		defer close(ctrlDone)
		for {
			m, err := ctrl.Recv()
			if err != nil {
				s.fail(fmt.Errorf("transfer: control channel: %w", err))
				cancel()
				return
			}
			if m.LedgerState != nil {
				// Route a ledger-pull reply to its waiting recovery.
				pullMu.Lock()
				if ch, ok := pullWaiters[m.LedgerState.Seq]; ok {
					ch <- m.LedgerState.Ledger
				}
				pullMu.Unlock()
				continue
			}
			if m.Status == nil {
				continue
			}
			s.mu.Lock()
			s.lastStatus = *m.Status
			s.mu.Unlock()
			if m.Status.Error != "" {
				s.fail(fmt.Errorf("transfer: receiver: %s", m.Status.Error))
				cancel()
				return
			}
			if m.Status.Done {
				close(doneCh)
				return
			}
		}
	}()

	readPool.Resize(initial.N[env.StageRead])
	streams := initial.N[env.StageStreams]
	netPool.Resize(conns.size() * streams)
	writers := initial.N[env.StageWrite]

	rec := metrics.NewRecorder()
	start := time.Now()
	ticker := time.NewTicker(cfg.ProbeInterval)
	defer ticker.Stop()

	record := func() env.State {
		now := time.Since(start).Seconds()
		st := s.status()
		dt := cfg.ProbeInterval.Seconds()
		state := env.State{
			N: [env.StageCount]int{
				env.StageRead:    readPool.Size(),
				env.StageConns:   conns.size(),
				env.StageStreams: streams,
				env.StageWrite:   writers,
			},
			Throughput: env.ThroughputVec(
				bytesToMb(readCounter.Reset())/dt,
				bytesToMb(netCounter.Reset())/dt,
				st.WriteMbps,
			),
			SenderFree:   bytesToMb(staging.Free()),
			ReceiverFree: bytesToMb(st.BufFree),
		}
		rec.Series("cc_read").Record(now, float64(state.N[env.StageRead]))
		rec.Series("cc_conns").Record(now, float64(state.N[env.StageConns]))
		rec.Series("cc_streams").Record(now, float64(state.N[env.StageStreams]))
		rec.Series("cc_net").Record(now, float64(netPool.Size()))
		rec.Series("cc_write").Record(now, float64(state.N[env.StageWrite]))
		rec.Series("thr_read").Record(now, state.Throughput[env.StageRead])
		rec.Series("thr_net").Record(now, state.Throughput[env.StageConns])
		rec.Series("thr_write").Record(now, state.Throughput[env.StageWrite])
		if h := cfg.Hooks.OnTick; h != nil {
			h(state)
		}
		if h := cfg.Hooks.OnProgress; h != nil {
			h(st.CommittedBytes, total)
		}
		return state
	}

	ctrlName := "fixed"
	if s.Controller != nil {
		ctrlName = s.Controller.Name()
	}

	// The flight wrap is decided once per run (one atomic load), so a
	// disabled recorder adds nothing to the probe loop. The source is
	// keyed by session ID: a resumed attempt appends to the prior
	// attempt's ring.
	decider := s.Controller
	if decider != nil && flight.Active() {
		decider = flight.WrapController(decider, flight.Default(), "ctrl:"+sess.ID)
	}

	for {
		select {
		case <-ctx.Done():
			if err := s.Err(); err != nil {
				return nil, err
			}
			return nil, ctx.Err()
		case <-doneCh:
			record()
			d := time.Since(start)
			return &Result{
				Duration:     d,
				Bytes:        planned,
				AvgMbps:      bytesToMb(planned) / d.Seconds(),
				Controller:   ctrlName,
				SessionID:    sess.ID,
				Resumed:      sess.Resumed,
				SkippedBytes: skipped,
				Recorder:     rec,
			}, s.Err()
		case <-ticker.C:
			state := record()
			if decider == nil {
				continue
			}
			act := decider.Decide(state).Clamp(cfg.MaxThreads)
			readPool.Resize(act.N[env.StageRead])
			conns.setWant(act.N[env.StageConns])
			streams = act.N[env.StageStreams]
			netPool.Resize(act.N[env.StageConns] * streams)
			if act.N[env.StageWrite] != writers {
				writers = act.N[env.StageWrite]
				// A failed send ends the control reader, which owns the
				// verdict: a finished receiver may already have closed
				// the channel after its Done.
				ctrl.Send(wire.Message{SetWriters: &wire.SetWriters{N: writers}})
			}
		}
	}
}
