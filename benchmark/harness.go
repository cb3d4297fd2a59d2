package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"automdt/internal/env"
	"automdt/internal/transfer"
	"automdt/internal/wire"
)

// opSample is one operation of a workload's closed loop: a transfer, or
// a scheduler job from Submit to Wait.
type opSample struct {
	wall   time.Duration
	bytes  int64 // payload bytes the op moved
	files  int
	failed bool
	err    string
}

// block is one of the back-to-back repeats a phase is cut into: the ops
// that completed in it and the measured time they took.
type block struct {
	ops    []opSample
	active time.Duration
}

// phaseBlocks is how many blocks a phase is cut into. The host this runs
// on is disturbed in bursts (README.md, "Steadiness"), the disturbance
// only ever slows an op down, and so each end-to-end metric reports its
// best block: the usual best-of-N-repeats, with N repeats inside one run.
const phaseBlocks = 5

// phase is one measuring phase of a workload: the ops a closed loop
// completed, and what the process spent while ops were in flight.
// Harness-only work between ops (scribbling and verifying destination
// files) happens outside the measured regions and counts for nothing.
type phase struct {
	clients int
	maxOps  int       // smoke: per serial loop, or per client and block; 0 = until the budget is spent
	tr      *tracer   // nil in the untraced phase
	c       *counters // non-nil iff tr is

	mu     sync.Mutex
	ops    []opSample
	hk     hookTotals
	blocks []block
	cutOps int           // ops already in a block
	cutAt  time.Duration // measured time already in a block

	active    time.Duration // wall inside measured regions
	user, sys time.Duration // process CPU inside measured regions
	ioops     int64         // wire.IOOps delta inside measured regions
	mallocs   uint64        // whole phase
	gcPause   time.Duration // whole phase

	regionStart   time.Time
	regionU       time.Duration
	regionS       time.Duration
	regionIO      int64
	mem0          runtime.MemStats
	arena         *transfer.Arena
	arena0        transfer.ArenaStats
	arenaPeak     int64
	arenaHits     int64
	arenaMisses   int64
	arenaOverflow int64
}

func newPhase(clients int, traced bool, arena *transfer.Arena) *phase {
	ph := &phase{clients: clients, arena: arena, arena0: arena.Stats()}
	if traced {
		ph.tr = newTracer()
		ph.c = new(counters)
	}
	runtime.ReadMemStats(&ph.mem0)
	return ph
}

// resume opens a measured region; suspend closes it.
func (ph *phase) resume() {
	ph.regionU, ph.regionS = cpuTimes()
	ph.regionIO = wire.IOOps()
	ph.regionStart = time.Now()
}

func (ph *phase) suspend() {
	ph.active += time.Since(ph.regionStart)
	u, s := cpuTimes()
	ph.user += u - ph.regionU
	ph.sys += s - ph.regionS
	ph.ioops += wire.IOOps() - ph.regionIO
}

// cut closes the current block, if any op completed in it.
func (ph *phase) cut() {
	if len(ph.ops) == ph.cutOps {
		return
	}
	ph.blocks = append(ph.blocks, block{ops: ph.ops[ph.cutOps:], active: ph.active - ph.cutAt})
	ph.cutOps, ph.cutAt = len(ph.ops), ph.active
}

// finish closes the last block and the phase's whole-phase counters.
func (ph *phase) finish() {
	ph.cut()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ph.mallocs = m.Mallocs - ph.mem0.Mallocs
	ph.gcPause = time.Duration(m.PauseTotalNs - ph.mem0.PauseTotalNs)
	st := ph.arena.Stats()
	ph.arenaHits = st.Hits - ph.arena0.Hits
	ph.arenaMisses = st.Misses - ph.arena0.Misses
	ph.arenaOverflow = st.Overflow - ph.arena0.Overflow
	ph.sampleArena()
}

func (ph *phase) sampleArena() {
	st := ph.arena.Stats()
	ph.mu.Lock()
	if fp := st.InUseBytes + st.PooledBytes; fp > ph.arenaPeak {
		ph.arenaPeak = fp
	}
	ph.mu.Unlock()
}

// more reports whether a serial closed loop should start another op, and
// cuts a block each time another budget/phaseBlocks of measured time has
// passed.
func (ph *phase) more(budget time.Duration) bool {
	if ph.active-ph.cutAt >= budget/phaseBlocks {
		ph.cut()
	}
	return ph.active < budget && (ph.maxOps == 0 || len(ph.ops) < ph.maxOps)
}

func (ph *phase) add(s opSample) {
	ph.mu.Lock()
	ph.ops = append(ph.ops, s)
	ph.mu.Unlock()
}

// totals over the ops that succeeded.
func (ph *phase) totals() (ok, failed int, bytes int64, files int, opWall time.Duration) {
	for _, s := range ph.ops {
		if s.failed {
			failed++
			continue
		}
		ok++
		bytes += s.bytes
		files += s.files
		opWall += s.wall
	}
	return
}

// endToEnd computes the workload-independent end-to-end metrics of an
// untraced phase: each metric per block, then the best block. tailPct is
// the workload's fixed tail percentile.
func (ph *phase) endToEnd(tailPct float64) map[string]float64 {
	best := make(map[string]float64)
	for _, b := range ph.blocks {
		var walls, mbps, fps []float64
		for _, s := range b.ops {
			if s.failed {
				continue
			}
			sec := s.wall.Seconds()
			walls = append(walls, sec*1e3)
			mbps = append(mbps, float64(s.bytes)/1e6/sec)
			fps = append(fps, float64(s.files)/sec)
		}
		if len(walls) == 0 {
			continue
		}
		m := map[string]float64{
			"goodput_MBps": median(mbps),
			"files_per_s":  median(fps),
			"jobs_per_s":   float64(len(walls)) / b.active.Seconds(),
			"op_ms_p50":    median(walls),
			"op_ms_tail":   percentile(walls, tailPct),
		}
		for _, d := range endToEndDefs {
			v, ok := m[d.Name]
			if !ok {
				continue
			}
			if old, seen := best[d.Name]; !seen || (d.Better == "higher") == (v > old) {
				best[d.Name] = v
			}
		}
	}
	return best
}

// hookTotals is what the transfer.Hooks of the ops of a traced phase add
// up to: the phase split of each op's wall, and the per-tick state.
type hookTotals struct {
	listen, handshake, stream, drain, residual, wall time.Duration
	ticks                                            int
	sndUsed, rcvUsed                                 float64 // Σ over ticks of the used share
	utility                                          float64 // Σ over ticks of env.Utility
	resent                                           int64
}

// opHooks observes one op through transfer.Hooks. The engine calls the
// hooks synchronously from the sender's control loop.
type opHooks struct {
	ph      *phase
	started time.Time
	hk      hookTotals
}

// stagingMb is transfer.Config's default staging capacity (64 MiB at both
// ends) in the megabits env.State reports free space in.
const stagingMb = float64(64<<20) * 8 / 1e6

func newOpHooks(ph *phase) *opHooks { return &opHooks{ph: ph} }

func (h *opHooks) hooks() transfer.Hooks {
	return transfer.Hooks{
		OnStart: func() { h.started = time.Now() },
		OnTick: func(st transfer.State) {
			h.hk.ticks++
			h.hk.sndUsed += 1 - st.SenderFree/stagingMb
			h.hk.rcvUsed += 1 - st.ReceiverFree/stagingMb
			h.hk.utility += env.Utility(st.Throughput, env.Action{N: st.N}, env.DefaultK)
			h.ph.sampleArena()
		},
	}
}

// close splits the op's wall [t0, t1] into four phases that partition it
// — listen (op start → Sender.Run start), handshake (→ first byte
// written to a data connection: control dial, Hello/Welcome, planning,
// first read, first data dial), stream (→ last byte written to a data
// connection), drain (→ op end) — and folds the op into the phase totals.
// The residual is what the four fail to cover: 0 unless a hook or the
// data-connection wrapper never fired. Call it before the op's root span
// closes.
func (h *opHooks) close(t0, t1 time.Time, ot *opTrace, res *transfer.Result) {
	if res != nil {
		h.hk.resent = res.ResentBytes
	}
	h.hk.wall = t1.Sub(t0)
	h.hk.residual = h.hk.wall
	if ot != nil && !h.started.IsZero() && !ot.firstData.IsZero() {
		h.hk.listen = h.started.Sub(t0)
		h.hk.handshake = ot.firstData.Sub(h.started)
		h.hk.stream = ot.lastData.Sub(ot.firstData)
		h.hk.drain = t1.Sub(ot.lastData)
		h.hk.residual = (h.hk.wall - h.hk.listen - h.hk.handshake - h.hk.stream - h.hk.drain).Abs()
		ot.t.child(ot.op, phaseSpan+"listen", t0, h.started)
		ot.t.child(ot.op, phaseSpan+"handshake", h.started, ot.firstData)
		ot.t.child(ot.op, phaseSpan+"stream", ot.firstData, ot.lastData)
		ot.t.child(ot.op, phaseSpan+"drain", ot.lastData, t1)
	}
	h.ph.mu.Lock()
	a := &h.ph.hk
	a.listen += h.hk.listen
	a.handshake += h.hk.handshake
	a.stream += h.hk.stream
	a.drain += h.hk.drain
	a.residual += h.hk.residual
	a.wall += h.hk.wall
	a.ticks += h.hk.ticks
	a.sndUsed += h.hk.sndUsed
	a.rcvUsed += h.hk.rcvUsed
	a.utility += h.hk.utility
	a.resent += h.hk.resent
	h.ph.mu.Unlock()
}

// div is x/y, 0 when y is 0: per-layer metrics of a layer the workload
// does not use read 0.
func div(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// commonLayers fills the per-layer metrics every workload shares: proc.*
// and wire.ioops_per_GB from the untraced phase (tracing would inflate
// them), the rest from the traced phase's wrappers and hooks, per op.
func commonLayers(m map[string]float64, un, tr *phase, tailPct float64) {
	ok, _, bytes, _, _ := un.totals()
	gb := float64(bytes) / 1e9
	m["proc.cpu_user_s_per_GB"] = div(un.user.Seconds(), gb)
	m["proc.cpu_sys_s_per_GB"] = div(un.sys.Seconds(), gb)
	m["proc.cpu_ms_per_op"] = div((un.user+un.sys).Seconds()*1e3, float64(ok))
	m["proc.peak_rss_MB"] = peakRSSMB()
	m["proc.mallocs_per_GB"] = div(float64(un.mallocs), gb)
	m["proc.mallocs_per_op"] = div(float64(un.mallocs), float64(ok))
	m["proc.gc_pause_ms"] = float64(un.gcPause) / 1e6
	m["wire.ioops_per_GB"] = div(float64(un.ioops), gb)

	trOK, _, trBytes, _, trOpWall := tr.totals()
	ops := float64(trOK)
	c := tr.c
	count := func(a *atomic.Int64) float64 { return div(float64(a.Load()), ops) }
	busy := func(a *atomic.Int64) float64 { return div(float64(a.Load())/1e9, ops) }
	m["fsim.open_calls"] = count(&c.openCalls)
	m["fsim.open_busy_s"] = busy(&c.openBusy)
	m["fsim.read_calls"] = count(&c.readCalls)
	m["fsim.read_bytes"] = count(&c.readBytes)
	m["fsim.read_busy_s"] = busy(&c.readBusy)
	m["fsim.create_calls"] = count(&c.createCalls)
	m["fsim.create_busy_s"] = busy(&c.createBusy)
	m["fsim.write_calls"] = count(&c.writeCalls)
	m["fsim.write_bytes"] = count(&c.writeBytes)
	m["fsim.write_busy_s"] = busy(&c.writeBusy)
	m["fsim.close_busy_s"] = busy(&c.closeBusy)
	m["fsim.ledger_calls"] = count(&c.ledgerCalls)
	m["fsim.ledger_bytes"] = count(&c.ledgerBytes)
	m["fsim.ledger_busy_s"] = busy(&c.ledgerBusy)

	m["net.data_conns"] = count(&c.dataConns)
	m["net.data_write_calls"] = count(&c.dataWriteCalls)
	m["net.data_write_bytes"] = count(&c.dataWriteBytes)
	m["net.data_write_busy_s"] = busy(&c.dataWriteBusy)
	m["net.ctrl_tx_bytes"] = count(&c.ctrlTx)
	m["net.ctrl_rx_bytes"] = count(&c.ctrlRx)
	m["wire.framing_overhead_frac"] = div(float64(c.dataWriteBytes.Load()), float64(trBytes)) - 1

	hk := tr.hk
	m["transfer.listen_s"] = div(hk.listen.Seconds(), ops)
	m["transfer.handshake_s"] = div(hk.handshake.Seconds(), ops)
	m["transfer.stream_s"] = div(hk.stream.Seconds(), ops)
	m["transfer.drain_s"] = div(hk.drain.Seconds(), ops)
	m["transfer.phase_residual_frac"] = div(hk.residual.Seconds(), hk.wall.Seconds())
	m["transfer.ticks"] = div(float64(hk.ticks), ops)
	m["transfer.sender_buf_used_frac"] = div(hk.sndUsed, float64(hk.ticks))
	m["transfer.receiver_buf_used_frac"] = div(hk.rcvUsed, float64(hk.ticks))
	m["transfer.resent_bytes"] = div(float64(hk.resent), ops)
	m["transfer.arena_hits"] = div(float64(tr.arenaHits), ops)
	m["transfer.arena_misses"] = div(float64(tr.arenaMisses), ops)
	m["transfer.arena_overflow"] = div(float64(tr.arenaOverflow), ops)
	m["transfer.arena_peak_MB"] = float64(tr.arenaPeak) / 1e6

	// Tracing overhead on the median op wall, traced against untraced.
	unE, trE := un.endToEnd(tailPct), tr.endToEnd(tailPct)
	m["bench.trace_overhead_frac"] = 1 - div(unE["op_ms_p50"], trE["op_ms_p50"])
	m["bench.generator_idle_frac"] = 1 - div(trOpWall.Seconds(), float64(tr.clients)*tr.active.Seconds())
	wall, self := tr.tr.selfTimes()
	m["bench.op_self_frac"] = div(self.Seconds(), wall.Seconds())
}
