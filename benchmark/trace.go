package main

import (
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"automdt/internal/env"
	"automdt/internal/fsim"
)

// The tracer measures the engine from outside: every span is recorded by
// a wrapper this harness puts on a seam the engine already exposes
// (fsim.Store, transfer.Config.WrapConn, transfer.Config.Hooks,
// env.Controller). Nothing in internal/ knows it is being traced.

// span is one timed interval. Spans of one op share Op (the session id);
// Parent is the op's root span, 0 for the root itself.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory (small_files alone makes
// ~25 k per transfer). Counters keep counting past the cap; the number
// of spans dropped is written to the trace file.
const maxSpans = 300_000

type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	nextID  int64
	roots   map[string]int64 // op → root span id, while the op is open
	spans   []span
	dropped int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), roots: make(map[string]int64)}
}

// begin opens the root span of op and returns the function that closes it.
func (t *tracer) begin(op string) (end func()) {
	start := time.Now()
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.roots[op] = id
	t.mu.Unlock()
	return func() {
		stop := time.Now()
		t.mu.Lock()
		delete(t.roots, op)
		t.keep(span{ID: id, Op: op, Name: "op", Start: start.Sub(t.epoch).Nanoseconds(), End: stop.Sub(t.epoch).Nanoseconds()})
		t.mu.Unlock()
	}
}

// child records a finished span under op's root.
func (t *tracer) child(op, name string, start, stop time.Time) {
	t.mu.Lock()
	t.nextID++
	t.keep(span{ID: t.nextID, Parent: t.roots[op], Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: stop.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// keep appends under the cap. Caller holds mu.
func (t *tracer) keep(s span) {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// spanSummary aggregates the kept spans of one name.
type spanSummary struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	MeanUs float64 `json:"mean_us"`
}

// phaseSpan prefixes the names of the four phase spans of an op. They
// partition the op, so they are left out of its self time.
const phaseSpan = "transfer.phase."

// selfTimes returns the summed wall of the kept root spans and their
// self time: the wall minus the union of the intervals the wrapped calls
// under them cover, that is, the time no wrapped call was in flight.
func (t *tracer) selfTimes() (wall, self time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 && !strings.HasPrefix(s.Name, phaseSpan) {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		if s.Parent != 0 {
			continue
		}
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, hi := int64(0), s.Start
		for _, k := range iv {
			lo, end := k[0], k[1]
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		wall += time.Duration(s.End - s.Start)
		self += time.Duration(s.End - s.Start - covered)
	}
	return wall, self
}

// doc is the trace as it is written out: a per-name summary, then the
// spans themselves.
func (t *tracer) doc() map[string]any {
	wall, self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	byName := make(map[string]*spanSummary)
	for _, s := range t.spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		sum.Count++
		sum.TotalS += float64(s.End-s.Start) / 1e9
	}
	var sums []spanSummary
	for _, s := range byName {
		s.MeanUs = s.TotalS / float64(s.Count) * 1e6
		s.SelfS = s.TotalS // the wrappers do not nest: a child span is all self time
		if s.Name == "op" {
			s.SelfS = self.Seconds() // wall minus the union of the wrapped calls under it
		}
		sums = append(sums, *s)
	}
	sort.Slice(sums, func(i, j int) bool { return sums[i].Name < sums[j].Name })
	return map[string]any{
		"spans_kept":    len(t.spans),
		"spans_dropped": t.dropped,
		"op_wall_s":     wall.Seconds(),
		"summary":       sums,
		"spans":         t.spans,
	}
}

// counters are the per-layer counts the wrappers keep for one traced
// phase. Times are nanoseconds of wall spent inside the wrapped call,
// summed over every goroutine that made it ("busy").
type counters struct {
	// fsim, source side
	openCalls, openBusy, readCalls, readBytes, readBusy atomic.Int64
	// fsim, destination side
	createCalls, createBusy, writeCalls, writeBytes, writeBusy atomic.Int64
	closeBusy, ledgerCalls, ledgerBytes, ledgerBusy            atomic.Int64
	// net
	dataConns, dataWriteCalls, dataWriteBytes, dataWriteBusy atomic.Int64
	ctrlTx, ctrlRx                                           atomic.Int64
}

// opTrace is what the wrappers of one op share: where to record, under
// which op, and the first/last data-byte instants the phase split needs.
type opTrace struct {
	t  *tracer
	c  *counters
	op string

	mu        sync.Mutex
	firstData time.Time
	lastData  time.Time
}

func (o *opTrace) span(name string, start time.Time) time.Duration {
	stop := time.Now()
	o.t.child(o.op, name, start, stop)
	return stop.Sub(start)
}

func (o *opTrace) dataWrite(start, stop time.Time) {
	o.mu.Lock()
	if o.firstData.IsZero() {
		o.firstData = start
	}
	if stop.After(o.lastData) {
		o.lastData = stop
	}
	o.mu.Unlock()
}

// sourceStore wraps the source fsim.Store. It forwards nothing but
// Open/Create, and its readers hide syscall.Conn.
type sourceStore struct {
	inner fsim.Store
	ot    *opTrace
}

func (s *sourceStore) Open(name string, size int64) (fsim.FileReader, error) {
	t0 := time.Now()
	r, err := s.inner.Open(name, size)
	s.ot.c.openCalls.Add(1)
	s.ot.c.openBusy.Add(int64(s.ot.span("fsim.open", t0)))
	if err != nil {
		return nil, err
	}
	return &tracedReader{r, s.ot}, nil
}

func (s *sourceStore) Create(name string, size int64) (fsim.FileWriter, error) {
	return s.inner.Create(name, size)
}

type tracedReader struct {
	fsim.FileReader
	ot *opTrace
}

func (r *tracedReader) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := r.FileReader.ReadAt(p, off)
	r.ot.c.readCalls.Add(1)
	r.ot.c.readBytes.Add(int64(n))
	r.ot.c.readBusy.Add(int64(r.ot.span("fsim.read", t0)))
	return n, err
}

// ledgerStore is what both destination stores the benchmark uses
// (DirStore, SyntheticStore) implement beyond fsim.Store.
type ledgerStore interface {
	fsim.Store
	fsim.Stater
	fsim.LedgerStore
	fsim.LedgerAppender
	fsim.LedgerLister
}

// destStore wraps the destination store and forwards every optional
// capability the receiver looks for, so resumable sessions keep their
// ledgers. Its writers deliberately do NOT expose syscall.Conn: a traced
// write is one WriteAt per chunk, never a pwritev group.
//
// One destStore can serve concurrent ops (the fleet shares one
// destination); opOf maps a file or session name to its op.
type destStore struct {
	inner ledgerStore
	opOf  func(name string) *opTrace
}

func (d *destStore) Open(name string, size int64) (fsim.FileReader, error) {
	return d.inner.Open(name, size)
}

func (d *destStore) Create(name string, size int64) (fsim.FileWriter, error) {
	ot := d.opOf(name)
	if ot == nil {
		return d.inner.Create(name, size)
	}
	t0 := time.Now()
	w, err := d.inner.Create(name, size)
	ot.c.createCalls.Add(1)
	ot.c.createBusy.Add(int64(ot.span("fsim.create", t0)))
	if err != nil {
		return nil, err
	}
	return &tracedWriter{w, ot}, nil
}

func (d *destStore) Stat(name string) (int64, error) { return d.inner.Stat(name) }

// ledger times one ledger call of the session and returns the function
// that ends the span; bytes is what the call persists.
func (d *destStore) ledger(session string, bytes int) (end func()) {
	ot := d.opOf(session)
	if ot == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() {
		ot.c.ledgerCalls.Add(1)
		ot.c.ledgerBytes.Add(int64(bytes))
		ot.c.ledgerBusy.Add(int64(ot.span("fsim.ledger", t0)))
	}
}

func (d *destStore) SaveLedger(session string, data []byte) error {
	defer d.ledger(session, len(data))()
	return d.inner.SaveLedger(session, data)
}

func (d *destStore) LoadLedger(session string) ([]byte, error) {
	defer d.ledger(session, 0)()
	return d.inner.LoadLedger(session)
}

func (d *destStore) RemoveLedger(session string) error {
	defer d.ledger(session, 0)()
	return d.inner.RemoveLedger(session)
}

func (d *destStore) AppendLedger(session string, data []byte) error {
	defer d.ledger(session, len(data))()
	return d.inner.AppendLedger(session, data)
}

func (d *destStore) LoadJournal(session string) ([]byte, error) {
	defer d.ledger(session, 0)()
	return d.inner.LoadJournal(session)
}

func (d *destStore) ResetJournal(session string) error {
	defer d.ledger(session, 0)()
	return d.inner.ResetJournal(session)
}

func (d *destStore) ListLedgers() ([]fsim.LedgerInfo, error) { return d.inner.ListLedgers() }

type tracedWriter struct {
	fsim.FileWriter
	ot *opTrace
}

func (w *tracedWriter) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := w.FileWriter.WriteAt(p, off)
	w.ot.c.writeCalls.Add(1)
	w.ot.c.writeBytes.Add(int64(n))
	w.ot.c.writeBusy.Add(int64(w.ot.span("fsim.write", t0)))
	return n, err
}

func (w *tracedWriter) Close() error {
	t0 := time.Now()
	err := w.FileWriter.Close()
	w.ot.c.closeBusy.Add(int64(w.ot.span("fsim.close", t0)))
	return err
}

// tracedConn wraps one connection the sender dialed. It hides
// syscall.Conn, so a traced transfer writes frames through Write.
type tracedConn struct {
	net.Conn
	data bool
	ot   *opTrace
}

func (ot *opTrace) wrapConn(kind string, c net.Conn) net.Conn {
	data := kind == "data"
	if data {
		ot.c.dataConns.Add(1)
	}
	return &tracedConn{Conn: c, data: data, ot: ot}
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if !c.data {
		n, err := c.Conn.Write(p)
		c.ot.c.ctrlTx.Add(int64(n))
		return n, err
	}
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	stop := time.Now()
	c.ot.t.child(c.ot.op, "net.data_write", t0, stop)
	c.ot.dataWrite(t0, stop)
	c.ot.c.dataWriteCalls.Add(1)
	c.ot.c.dataWriteBytes.Add(int64(n))
	c.ot.c.dataWriteBusy.Add(int64(stop.Sub(t0)))
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if !c.data {
		c.ot.c.ctrlRx.Add(int64(n))
	}
	return n, err
}

// tracedController times every Decide of the controller it wraps.
type tracedController struct {
	inner env.Controller
	ot    *opTrace

	mu      sync.Mutex
	decides []time.Duration
}

func (c *tracedController) Name() string { return c.inner.Name() }

func (c *tracedController) Decide(s env.State) env.Action {
	t0 := time.Now()
	a := c.inner.Decide(s)
	d := c.ot.span("core.decide", t0)
	c.mu.Lock()
	c.decides = append(c.decides, d)
	c.mu.Unlock()
	return a
}
