// Package sim implements the lightweight I/O–network dynamics simulator
// of AutoMDT (Algorithm 1 of the paper). It emulates one second of
// modular transfer activity per Step call using a queue of (time,
// threadType) tasks instead of real threads, tracking the
// application-level staging buffers at the sender and receiver.
//
// The simulator is initialized with per-thread throughputs (TPT), aggregate
// bandwidths, and buffer capacities measured during the exploration and
// logging phase (internal/probe), and is what makes offline PPO training
// possible: it replicates the buffer dynamics of Figure 1 — reads stall
// when the sender buffer fills, network transfers need sender data and
// receiver space, writes need receiver data — so the agent can learn the
// coupled dynamics without touching a production network.
//
// Units: data volumes are megabits (Mb) and rates are megabits per second
// (Mbps), matching the paper's reporting.
//
// # Event model
//
// A step is a discrete-event run over [0, StepDuration). Every worker
// starts at t = 0, reads before network workers before writes. An event
// is one worker trying to move a chunk at time t: if its stage has
// something to move it executes — changes the buffers, draws its jitter
// sample from Rand — and is due again at t + chunk/rate + 1 ns; if not, it
// is blocked and due again at t + ϵ (RetryDelay). Events run in (t, seq)
// order, seq being a counter handed out when an event is scheduled, so
// workers due at the same instant run in the order their previous events
// ran. That tie order is an invariant, not a detail: every worker starts
// at 0, so starved network and write workers share the lattice ϵ, ϵ+ϵ, …,
// and whether a write runs just after or just before the network worker
// of the same instant decides whether it sees its data then or ϵ later.
// A retry time is reached by adding ϵ once per retry because that is the
// float the lattice consists of; k·ϵ is a different one.
//
// Most events (96 % of them while training) are retries that change
// nothing, so they do not go through a priority queue. Only an execution
// changes the buffers, so between two executions "blocked" is a property
// of the stage; a retry scheduled at time t is due at t+ϵ, no earlier than
// any retry scheduled before it, so retries sit in a FIFO that is always
// in (t, seq) order; and same-stage workers with one t and consecutive
// seqs are interchangeable, so they move as one record (all nc·ns starved
// network workers are one record until data arrives). What remains in the
// binary heap is one entry per worker that has executed. The next event is the
// smaller of the FIFO's head and the heap's top, and when every stage
// that has workers is blocked the step ends early, since nothing can
// execute again. None of this is visible from outside: Results and the
// order in which Rand is consumed are those of the plain one-heap loop,
// which survives as stepReference in reference_test.go and is compared
// with == on every Result over a seeded grid, a fuzz target, and (in
// internal/experiments) a whole training run.
package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Stage identifies one of the three pipeline operations.
type Stage int

// The three pipeline stages of a modular transfer.
const (
	Read Stage = iota
	Network
	Write
)

// String returns the lowercase stage name.
func (s Stage) String() string {
	switch s {
	case Read:
		return "read"
	case Network:
		return "network"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// Config describes the emulated end-to-end path.
type Config struct {
	// TPT holds the per-thread throughput of each stage in Mbps
	// (the maximum rate a single thread achieves).
	TPT [3]float64
	// Bandwidth holds the aggregate capacity of each stage in Mbps; a
	// stage's total rate is min(n·TPT, Bandwidth). Zero means unlimited.
	Bandwidth [3]float64
	// ConnMbps is the per-connection ceiling of the network stage in
	// Mbps: with n_c data connections the aggregate network rate is
	// additionally capped at n_c·ConnMbps regardless of how many streams
	// are multiplexed over each connection — the single-socket ceiling
	// that striping exists to lift. Zero means uncapped (legacy
	// single-connection dynamics where only Bandwidth binds).
	ConnMbps float64
	// SenderBufCap and ReceiverBufCap are staging buffer capacities
	// in Mb (the tmpfs staging directories of the DTNs).
	SenderBufCap   float64
	ReceiverBufCap float64
	// ChunkMb is the volume moved by one task execution. Defaults to 8 Mb
	// (1 MB) if zero.
	ChunkMb float64
	// StepDuration is the simulated wall time per Step in seconds.
	// Defaults to 1.
	StepDuration float64
	// RetryDelay is the ϵ re-queue delay for blocked tasks in seconds.
	// Defaults to 2 ms.
	RetryDelay float64
	// Jitter, if positive, perturbs each task's effective rate uniformly
	// by ±Jitter fraction, using the Rand source. This roughens the
	// simulator during training so the policy does not overfit to exact
	// dynamics. Typical value: 0.05.
	Jitter float64
	// Rand is the randomness source for jitter. May be nil when Jitter
	// is zero.
	Rand *rand.Rand
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ChunkMb <= 0 {
		out.ChunkMb = 8
	}
	if out.StepDuration <= 0 {
		out.StepDuration = 1
	}
	if out.RetryDelay <= 0 {
		out.RetryDelay = 0.002
	}
	return out
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	for s := Read; s <= Write; s++ {
		if c.TPT[s] <= 0 {
			return fmt.Errorf("sim: TPT[%s] must be positive, got %v", s, c.TPT[s])
		}
		if c.Bandwidth[s] < 0 {
			return fmt.Errorf("sim: Bandwidth[%s] must be non-negative, got %v", s, c.Bandwidth[s])
		}
	}
	if c.SenderBufCap <= 0 || c.ReceiverBufCap <= 0 {
		return fmt.Errorf("sim: buffer capacities must be positive (sender %v, receiver %v)",
			c.SenderBufCap, c.ReceiverBufCap)
	}
	return nil
}

// Result reports one simulated step.
type Result struct {
	// Throughput holds the achieved per-stage rates in Mbps, normalized
	// by the step duration.
	Throughput [3]float64
	// SenderBufUsed and ReceiverBufUsed are staging occupancies in Mb at
	// the end of the step.
	SenderBufUsed   float64
	ReceiverBufUsed float64
	// SenderBufFree and ReceiverBufFree are the corresponding free space
	// amounts — the key state signal of §IV-D-1.
	SenderBufFree   float64
	ReceiverBufFree float64
}

// Simulator is the event-driven dynamics model. It is not safe for
// concurrent use; each training goroutine should own its own instance.
type Simulator struct {
	cfg Config

	senderBuf   float64
	receiverBuf float64

	// retry is a ring (power-of-two length, live range head..tail) of
	// blocked cohorts in (t, seq) order; run is a min-heap of executed
	// workers' next starts. See the package comment.
	retry      []task
	head, tail int
	run        []task
}

// New creates a simulator from cfg. It panics if cfg is invalid; call
// cfg.Validate first when handling untrusted input.
func New(cfg Config) *Simulator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Simulator{cfg: cfg.withDefaults()}
}

// Config returns the simulator's (defaulted) configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Reset empties both staging buffers.
func (s *Simulator) Reset() {
	s.senderBuf = 0
	s.receiverBuf = 0
}

// SetBuffers overrides the staging occupancies, clamping to capacity.
// Used to randomize initial conditions between training episodes.
func (s *Simulator) SetBuffers(sender, receiver float64) {
	s.senderBuf = math.Max(0, math.Min(sender, s.cfg.SenderBufCap))
	s.receiverBuf = math.Max(0, math.Min(receiver, s.cfg.ReceiverBufCap))
}

// Buffers returns the current sender and receiver staging occupancies.
func (s *Simulator) Buffers() (sender, receiver float64) {
	return s.senderBuf, s.receiverBuf
}

// SetBandwidth changes a stage's aggregate capacity at runtime, emulating
// background traffic or a sysadmin re-throttle mid-transfer. Zero means
// unlimited.
func (s *Simulator) SetBandwidth(st Stage, mbps float64) {
	if mbps < 0 {
		mbps = 0
	}
	s.cfg.Bandwidth[st] = mbps
}

// SetConnMbps changes the per-connection network ceiling at runtime.
// Zero disables the cap.
func (s *Simulator) SetConnMbps(mbps float64) {
	if mbps < 0 {
		mbps = 0
	}
	s.cfg.ConnMbps = mbps
}

// SetTPT changes a stage's per-thread throughput at runtime (e.g. I/O
// contention from a co-located job). The value must be positive.
func (s *Simulator) SetTPT(st Stage, mbps float64) {
	if mbps > 0 {
		s.cfg.TPT[st] = mbps
	}
}

// task is a cohort of n interchangeable workers of one stage, all due at
// the same instant t and holding the consecutive sequence numbers
// seq … seq+n-1. Events run in (t, seq) order; seq is handed out in push
// order, so equal-t tasks run in the order their predecessors ran.
type task struct {
	t     float64
	seq   int
	stage Stage
	n     int
}

func (a *task) before(b *task) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// park appends a blocked cohort to the retry FIFO, folding it into the
// tail record when it continues that record's stage, instant and
// sequence run. The ring never overflows: it holds at most one record
// per live worker and is sized to the worker count.
func (s *Simulator) park(tk task) {
	mask := len(s.retry) - 1
	if s.head != s.tail {
		if last := &s.retry[(s.tail-1)&mask]; last.t == tk.t && last.stage == tk.stage && last.seq+last.n == tk.seq {
			last.n += tk.n
			return
		}
	}
	s.retry[s.tail&mask] = tk
	s.tail++
}

// pushRun and popRun are a binary min-heap over s.run in (t, seq) order.
func (s *Simulator) pushRun(tk task) {
	q := append(s.run, tk)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !tk.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = tk
	s.run = q
}

func (s *Simulator) popRun() task {
	q := s.run
	top, n := q[0], len(q)-1
	last := q[n]
	q = q[:n]
	for i := 0; n > 0; {
		c := 2*i + 1
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if c >= n || !q[c].before(&last) {
			q[i] = last
			break
		}
		q[i] = q[c]
		i = c
	}
	s.run = q
	return top
}

// tiny is the volume below which a stage counts as blocked, and the gap
// in seconds between a worker's chunk ending and its next one starting.
const tiny = 1e-9

// avail returns the volume a stage could move right now: free sender
// space for reads, staged data bounded by free receiver space for the
// network, staged receiver data for writes.
func (s *Simulator) avail(st Stage) float64 {
	switch st {
	case Read:
		return s.cfg.SenderBufCap - s.senderBuf
	case Network:
		return math.Min(s.senderBuf, s.cfg.ReceiverBufCap-s.receiverBuf)
	default:
		return s.receiverBuf
	}
}

// blockedStages reports which stages cannot move a chunk right now
// (avail ≤ tiny), and whether that is every stage that has workers.
// Buffers change only when a task executes, so the answer holds until the
// next execution — and once stuck, nothing can execute again in this step.
func (s *Simulator) blockedStages(counts *[3]int) (blocked [3]bool, stuck bool) {
	blocked[Read] = s.cfg.SenderBufCap-s.senderBuf <= tiny
	blocked[Network] = s.senderBuf <= tiny || s.cfg.ReceiverBufCap-s.receiverBuf <= tiny
	blocked[Write] = s.receiverBuf <= tiny
	stuck = true
	for st, n := range counts {
		stuck = stuck && (blocked[st] || n == 0)
	}
	return blocked, stuck
}

// baseRate returns a single thread's rate for the stage given n
// concurrent threads, before jitter: near-linear scaling capped by the
// aggregate bandwidth share and, for the network stage, by the striped
// per-connection ceiling (conns·ConnMbps split across the n streams).
func (s *Simulator) baseRate(st Stage, n, conns int) float64 {
	r := s.cfg.TPT[st]
	if bw := s.cfg.Bandwidth[st]; bw > 0 && n > 0 {
		r = math.Min(r, bw/float64(n))
	}
	if st == Network && s.cfg.ConnMbps > 0 && n > 0 && conns > 0 {
		r = math.Min(r, s.cfg.ConnMbps*float64(conns)/float64(n))
	}
	return r
}

// Step simulates cfg.StepDuration seconds of transfer with the given
// concurrency tuple ⟨n_r, n_c, n_s, n_w⟩ (GET_UTILITY of Algorithm 1,
// minus the reward computation, which belongs to the environment): nr
// read threads, nc data connections carrying ns streams each (so the
// network stage runs nc·ns workers whose aggregate rate is additionally
// capped at nc·ConnMbps), and nw write threads. Counts are clamped to
// be non-negative. Buffer state persists across steps.
func (s *Simulator) Step(nr, nc, ns, nw int) Result {
	cfg := &s.cfg
	tEnd := cfg.StepDuration
	var moved [3]float64

	nc = max(0, nc)
	counts := [3]int{max(0, nr), nc * max(0, ns), max(0, nw)}

	// Every worker starts at t = 0, reads before network before writes.
	size := 1
	for size < counts[Read]+counts[Network]+counts[Write] {
		size *= 2
	}
	if len(s.retry) < size {
		s.retry = make([]task, size)
	}
	mask := len(s.retry) - 1
	s.head, s.tail, s.run = 0, 0, s.run[:0]
	seq := 0
	for st, n := range counts {
		if n > 0 {
			s.park(task{stage: Stage(st), seq: seq, n: n})
			seq += n
		}
	}

	// Rates are fixed for the step; only the jitter sample is per chunk.
	var base [3]float64
	for st := Read; st <= Write; st++ {
		base[st] = s.baseRate(st, counts[st], nc)
	}
	jitter := cfg.Jitter > 0 && cfg.Rand != nil

	blocked, stuck := s.blockedStages(&counts)
	for !stuck && (s.head != s.tail || len(s.run) > 0) {
		// The next event in (t, seq) order is the head of the retry FIFO
		// or the top of the run heap. A blocked cohort moves whole; a
		// runnable one gives up its first worker and keeps its place.
		var tk task
		if h := &s.retry[s.head&mask]; s.head != s.tail && (len(s.run) == 0 || h.before(&s.run[0])) {
			tk = *h
			if blocked[h.stage] || h.n == 1 {
				s.head++
			} else {
				tk.n = 1
				h.seq++
				h.n--
			}
		} else {
			tk = s.popRun()
		}

		if blocked[tk.stage] {
			// Blocked: retry after ϵ.
			if tk.t += cfg.RetryDelay; tk.t < tEnd {
				tk.seq = seq
				seq += tk.n
				s.park(tk)
			}
			continue
		}

		// TASK(t, threadType): move one chunk.
		t := tk.t
		chunk := math.Min(cfg.ChunkMb, s.avail(tk.stage))
		rate := base[tk.stage]
		if jitter {
			rate *= 1 + cfg.Jitter*(2*cfg.Rand.Float64()-1)
		}
		dTask := chunk / rate
		if t+dTask > tEnd {
			// Partial completion at the step boundary.
			frac := (tEnd - t) / dTask
			chunk *= frac
			dTask = tEnd - t
		}
		moved[tk.stage] += chunk
		switch tk.stage {
		case Read:
			s.senderBuf = math.Min(cfg.SenderBufCap, s.senderBuf+chunk)
		case Network:
			s.senderBuf = math.Max(0, s.senderBuf-chunk)
			s.receiverBuf = math.Min(cfg.ReceiverBufCap, s.receiverBuf+chunk)
		case Write:
			s.receiverBuf = math.Max(0, s.receiverBuf-chunk)
		}
		if tNext := t + dTask + tiny; tNext < tEnd {
			s.pushRun(task{t: tNext, seq: seq, stage: tk.stage, n: 1})
			seq++
		}
		blocked, stuck = s.blockedStages(&counts)
	}

	res := Result{
		SenderBufUsed:   s.senderBuf,
		ReceiverBufUsed: s.receiverBuf,
		SenderBufFree:   cfg.SenderBufCap - s.senderBuf,
		ReceiverBufFree: cfg.ReceiverBufCap - s.receiverBuf,
	}
	for st := Read; st <= Write; st++ {
		res.Throughput[st] = moved[st] / tEnd
	}
	return res
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
