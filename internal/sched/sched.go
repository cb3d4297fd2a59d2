package sched

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"automdt/internal/env"
	"automdt/internal/flight"
	"automdt/internal/metrics"
	"automdt/internal/transfer"
	"automdt/internal/workload"
)

// JobState is a job's position in the lifecycle state machine.
type JobState int

const (
	Queued JobState = iota
	Running
	Done
	Failed
	Cancelled
)

// String returns the lowercase state name used in the API and metrics.
func (s JobState) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == Done || s == Failed || s == Cancelled
}

// jobStates lists every state, for metrics export.
var jobStates = []JobState{Queued, Running, Done, Failed, Cancelled}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("sched: scheduler closed")

// ErrNotFound is returned for unknown job IDs.
var ErrNotFound = errors.New("sched: no such job")

// ErrCancelled is recorded as a cancelled job's error.
var ErrCancelled = errors.New("sched: job cancelled")

// MaxPriority caps fair-share weights. Submit clamps into [1,
// MaxPriority] so weight sums can never overflow in the arbiter no
// matter what a client sends.
const MaxPriority = 1 << 20

// DefaultHistory is how many terminal jobs are retained (and exported in
// List/Snapshot) before the oldest are evicted.
const DefaultHistory = 1024

// JobSpec describes one transfer job.
type JobSpec struct {
	// Name is a human-readable tag echoed in statuses and metrics.
	Name string
	// Manifest lists the files to move. Required.
	Manifest workload.Manifest
	// Priority is the fair-share weight (≥1; default 1). A priority-3 job
	// holds three times the budget slice of a priority-1 job while both
	// are active.
	Priority int
	// MaxRetries is how many times a failed attempt is re-queued before
	// the job is marked Failed. 0 means a single attempt.
	MaxRetries int
	// Transfer parameterizes the engine for this job. Job-scoped hooks in
	// Transfer.Hooks are preserved; the scheduler chains its own.
	Transfer transfer.Config
}

// Job is the scheduler's record of one submitted transfer. All mutable
// fields are guarded by the scheduler's lock; read them through Status.
type Job struct {
	ID   int64
	Spec JobSpec

	state     JobState
	attempts  int
	share     [env.StageCount]int
	cap       *env.BudgetCap
	cancelJob context.CancelFunc
	cancelled bool
	err       error
	result    *transfer.Result
	last      env.State
	ticks     int64
	submitted time.Time
	queuedAt  time.Time // last (re-)enqueue, for queue-wait accounting
	started   time.Time
	finished  time.Time
	done      chan struct{}

	// session is the transfer session identity every attempt shares —
	// what turns a retry into a resume instead of a restart.
	session string
	// resumes counts attempts that actually picked up committed ranges
	// from a previous attempt's ledger.
	resumes int
	// skipped is the byte volume the latest attempt inherited from the
	// ledger (not re-sent); committed is the receiver-reported committed
	// progress, updated every probe tick.
	skipped   int64
	committed int64
	// totalBytes caches Spec.Manifest.TotalBytes() at Submit so the run
	// queue can order jobs by committed fraction without walking the
	// manifest on every heap comparison.
	totalBytes int64
}

// JobStatus is an immutable snapshot of a job, JSON-shaped for the
// daemon API.
type JobStatus struct {
	ID         int64               `json:"id"`
	Name       string              `json:"name"`
	State      string              `json:"state"`
	Priority   int                 `json:"priority"`
	Attempts   int                 `json:"attempts"`
	Share      [env.StageCount]int `json:"share"`
	Threads    [env.StageCount]int `json:"threads"`
	Throughput env.StageVec        `json:"throughput_mbps"`
	TotalBytes int64               `json:"total_bytes"`
	AvgMbps    float64             `json:"avg_mbps,omitempty"`
	Seconds    float64             `json:"duration_sec,omitempty"`
	Error      string              `json:"error,omitempty"`
	Submitted  time.Time           `json:"submitted_at"`
	Started    time.Time           `json:"started_at,omitzero"`
	Finished   time.Time           `json:"finished_at,omitzero"`
	// Resume progress: every attempt of a job shares SessionID, so a
	// retry resumes from the chunk ledger instead of restarting.
	// CommittedBytes is the receiver-reported committed volume (live
	// while running, including ranges inherited from earlier attempts);
	// SkippedBytes is what the latest attempt did not have to re-send;
	// Resumes counts attempts that picked up a prior ledger.
	SessionID      string `json:"session_id,omitempty"`
	Resumes        int    `json:"resumes"`
	SkippedBytes   int64  `json:"skipped_bytes"`
	CommittedBytes int64  `json:"committed_bytes"`
}

// Runner executes one attempt of a job under the given (budget-capped)
// controller, honouring ctx cancellation.
type Runner interface {
	Run(ctx context.Context, spec JobSpec, ctrl env.Controller) (*transfer.Result, error)
}

// RunnerFunc adapts a function to Runner.
type RunnerFunc func(ctx context.Context, spec JobSpec, ctrl env.Controller) (*transfer.Result, error)

// Run implements Runner.
func (f RunnerFunc) Run(ctx context.Context, spec JobSpec, ctrl env.Controller) (*transfer.Result, error) {
	return f(ctx, spec, ctrl)
}

// Config parameterizes a Scheduler.
type Config struct {
	// Budget is the host-wide worker budget per stage dimension ⟨read,
	// conns, streams-per-conn, write⟩. Every component must be ≥ 1. The
	// arbiter guarantees the summed per-job caps never exceed it.
	Budget [env.StageCount]int
	// MaxActive caps concurrently running jobs. It is clamped to the
	// smallest stage budget so every active job can hold at least one
	// worker per stage; 0 means that clamp alone.
	MaxActive int
	// NewController builds each job's optimizer (wrapped in an
	// env.BudgetCap by the scheduler). nil holds jobs at their initial
	// concurrency, still budget-capped.
	NewController func() env.Controller
	// Runner executes job attempts. Required: a *FleetRunner in service,
	// any Runner (e.g. a RunnerFunc) in tests.
	Runner Runner
	// History is how many terminal jobs to retain for List/Status/
	// Snapshot before evicting the oldest (the daemon would otherwise
	// grow without bound). 0 means DefaultHistory.
	History int
	// Arena is the shared chunk-buffer arena injected into every job
	// whose transfer config doesn't bring its own. nil uses the
	// process-wide transfer.Default() arena. On every rebalance the
	// scheduler resizes the arena's retained-memory bound to cover the
	// staging demand of the admitted job set (never below the arena's
	// capacity at scheduler creation), so buffer memory follows
	// admission the same way worker budgets do.
	Arena *transfer.Arena

	// onRebalance, when set by tests, observes every arbiter allocation
	// (jobID → per-stage share). Called with the scheduler lock held.
	onRebalance func(map[int64][env.StageCount]int)
}

// Scheduler queues and runs transfer jobs under a global budget.
type Scheduler struct {
	cfg       Config
	maxActive int
	history   int
	arena     *transfer.Arena
	arenaBase int64 // idle-state arena capacity; demand grows it

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	nextID  int64
	jobs    map[int64]*Job
	order   []*Job
	queue   jobQueue
	active  map[int64]*Job
	retries int64
	// flightCum accumulates the arbiter's flight-recorder regret across
	// admission and rebalance events.
	flightCum float64
}

// New validates cfg and returns a running (initially idle) scheduler.
func New(cfg Config) (*Scheduler, error) {
	minBudget := cfg.Budget[0]
	for _, b := range cfg.Budget {
		if b < 1 {
			return nil, fmt.Errorf("sched: every stage budget must be ≥ 1, got %v", cfg.Budget)
		}
		if b < minBudget {
			minBudget = b
		}
	}
	if cfg.Runner == nil {
		return nil, errors.New("sched: Config.Runner is required")
	}
	maxActive := cfg.MaxActive
	if maxActive <= 0 || maxActive > minBudget {
		maxActive = minBudget
	}
	history := cfg.History
	if history <= 0 {
		history = DefaultHistory
	}
	arena := cfg.Arena
	if arena == nil {
		arena = transfer.Default()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Scheduler{
		cfg:       cfg,
		maxActive: maxActive,
		history:   history,
		arena:     arena,
		arenaBase: arena.Capacity(),
		ctx:       ctx,
		cancel:    cancel,
		jobs:      make(map[int64]*Job),
		active:    make(map[int64]*Job),
	}, nil
}

// arenaDemand estimates one job's peak buffer footprint: both staging
// buffers plus a chunk in flight per worker on each end.
func arenaDemand(spec JobSpec) int64 {
	cfg := spec.Transfer.WithDefaults()
	return cfg.SenderBufBytes + cfg.ReceiverBufBytes +
		2*int64(cfg.MaxThreads)*int64(cfg.ChunkBytes)
}

// MaxActive returns the effective concurrent-job cap.
func (s *Scheduler) MaxActive() int { return s.maxActive }

// Submit queues a job and returns its ID. The job starts as soon as a
// slot is free.
func (s *Scheduler) Submit(spec JobSpec) (int64, error) {
	if len(spec.Manifest) == 0 {
		return 0, errors.New("sched: job manifest is empty")
	}
	if spec.Priority <= 0 {
		spec.Priority = 1
	}
	if spec.Priority > MaxPriority {
		spec.Priority = MaxPriority
	}
	if spec.MaxRetries < 0 {
		spec.MaxRetries = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	s.nextID++
	session := spec.Transfer.SessionID
	if session == "" {
		session = fmt.Sprintf("job%d-%s", s.nextID, transfer.NewSessionID())
	}
	now := time.Now()
	job := &Job{
		ID:         s.nextID,
		Spec:       spec,
		state:      Queued,
		submitted:  now,
		queuedAt:   now,
		done:       make(chan struct{}),
		session:    session,
		totalBytes: spec.Manifest.TotalBytes(),
	}
	// Every attempt carries the session ID, so the retry path resumes
	// the interrupted session rather than re-queueing a fresh transfer.
	job.Spec.Transfer.SessionID = session
	s.jobs[job.ID] = job
	s.order = append(s.order, job)
	heap.Push(&s.queue, job)
	s.schedule()
	return job.ID, nil
}

// schedule starts queued jobs while slots are free, then rebalances the
// budget. Caller holds mu.
func (s *Scheduler) schedule() {
	if s.closed {
		return
	}
	for len(s.active) < s.maxActive && s.queue.Len() > 0 {
		job := heap.Pop(&s.queue).(*Job)
		if job.state != Queued {
			continue // cancelled while queued
		}
		s.start(job)
	}
	s.rebalance()
}

// start moves a queued job to Running and launches its worker. Caller
// holds mu.
func (s *Scheduler) start(job *Job) {
	job.state = Running
	job.attempts++
	if job.started.IsZero() {
		job.started = time.Now()
	}
	if job.Spec.Transfer.Arena == nil {
		job.Spec.Transfer.Arena = s.arena
	}
	var inner env.Controller
	if s.cfg.NewController != nil {
		inner = s.cfg.NewController()
	}
	job.cap = env.NewBudgetCap(inner, [env.StageCount]int{1, 1, 1, 1})
	job.cap.OnClamp(capClampHook(job))
	if flight.Active() {
		wait := time.Since(job.queuedAt)
		flight.Default().ObserveStage(flight.StageQueueWait, wait.Seconds())
		s.recordAdmission(job, wait)
	}
	ctx, cancel := context.WithCancel(s.ctx)
	job.cancelJob = cancel
	s.active[job.ID] = job
	s.wg.Add(1)
	go s.runJob(ctx, job)
}

// runJob executes one attempt and routes the outcome through finish.
func (s *Scheduler) runJob(ctx context.Context, job *Job) {
	defer s.wg.Done()
	spec := job.Spec
	userTick := spec.Transfer.Hooks.OnTick
	spec.Transfer.Hooks.OnTick = func(st env.State) {
		s.mu.Lock()
		job.last = st
		job.ticks++
		s.mu.Unlock()
		if userTick != nil {
			userTick(st)
		}
	}
	userSession := spec.Transfer.Hooks.OnSession
	spec.Transfer.Hooks.OnSession = func(sess transfer.Session) {
		s.mu.Lock()
		job.skipped = sess.SkippedBytes
		job.committed = sess.SkippedBytes
		if sess.Resumed {
			job.resumes++
		}
		s.mu.Unlock()
		if userSession != nil {
			userSession(sess)
		}
	}
	userProgress := spec.Transfer.Hooks.OnProgress
	spec.Transfer.Hooks.OnProgress = func(committed, total int64) {
		s.mu.Lock()
		if committed > job.committed {
			job.committed = committed
		}
		s.mu.Unlock()
		if userProgress != nil {
			userProgress(committed, total)
		}
	}
	res, err := s.cfg.Runner.Run(ctx, spec, job.cap)
	s.finish(job, res, err)
}

// finish records an attempt's outcome, re-queues retryable failures,
// releases the job's budget slice, and starts waiting work.
func (s *Scheduler) finish(job *Job, res *transfer.Result, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.active, job.ID)
	job.cancelJob()
	switch {
	case err == nil:
		job.state = Done
		job.result = res
		job.err = nil
	case job.cancelled || s.ctx.Err() != nil:
		job.state = Cancelled
		job.err = ErrCancelled
	default:
		job.err = err
		if job.attempts <= job.Spec.MaxRetries {
			job.state = Queued
			job.queuedAt = time.Now()
			s.retries++
			heap.Push(&s.queue, job)
		} else {
			job.state = Failed
		}
	}
	if job.state.Terminal() {
		job.finished = time.Now()
		close(job.done)
		s.evictLocked()
	}
	s.schedule()
}

// evictLocked drops the oldest terminal jobs beyond the history cap so a
// long-running daemon's memory and /metrics cardinality stay bounded.
// Evicted jobs disappear from Status/List/Snapshot. Caller holds mu.
func (s *Scheduler) evictLocked() {
	excess := -s.history
	for _, j := range s.order {
		if j.state.Terminal() {
			excess++
		}
	}
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, j := range s.order {
		if excess > 0 && j.state.Terminal() {
			delete(s.jobs, j.ID)
			excess--
			continue
		}
		kept = append(kept, j)
	}
	// Let the tail entries be collected.
	for i := len(kept); i < len(s.order); i++ {
		s.order[i] = nil
	}
	s.order = kept
}

// rebalance splits the per-stage budget across active jobs by priority
// weight and pushes the new caps into each job's BudgetCap. Caller holds
// mu. The invariant asserted by tests: for every stage, the assigned
// shares sum to at most the stage budget.
func (s *Scheduler) rebalance() {
	alloc := make(map[int64][env.StageCount]int, len(s.active))
	if len(s.active) > 0 {
		ids := make([]int64, 0, len(s.active))
		for id := range s.active {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		weights := make([]int, len(ids))
		for i, id := range ids {
			weights[i] = s.active[id].Spec.Priority
		}
		for stage := 0; stage < int(env.StageCount); stage++ {
			shares := fairShare(s.cfg.Budget[stage], weights)
			for i, id := range ids {
				a := alloc[id]
				a[stage] = shares[i]
				alloc[id] = a
			}
		}
		for id, sh := range alloc {
			job := s.active[id]
			job.share = sh
			job.cap.SetCap(sh)
		}
		if flight.Active() {
			s.recordRebalance(ids, weights, alloc)
		}
	}
	// Arena capacity tracks the admitted job set: grow to cover the
	// active jobs' staging demand, fall back to the idle baseline when
	// the set shrinks (excess pooled buffers shed lazily on release).
	// Jobs that brought their own dedicated arena don't lease from the
	// shared one, so they don't count against its capacity.
	demand := s.arenaBase
	var sum int64
	for _, job := range s.active {
		if job.Spec.Transfer.Arena == s.arena {
			sum += arenaDemand(job.Spec)
		}
	}
	if sum > demand {
		demand = sum
	}
	s.arena.SetCapacity(demand)
	if s.cfg.onRebalance != nil {
		s.cfg.onRebalance(alloc)
	}
}

// Cancel cancels a queued or running job. Cancelling a running job
// cancels its transfer context; the job reaches Cancelled once its
// worker returns (wait on Wait).
func (s *Scheduler) Cancel(id int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return ErrNotFound
	}
	switch job.state {
	case Queued:
		job.cancelled = true
		job.state = Cancelled
		job.err = ErrCancelled
		job.finished = time.Now()
		close(job.done)
		s.evictLocked()
		return nil
	case Running:
		job.cancelled = true
		job.cancelJob()
		return nil
	default:
		return fmt.Errorf("sched: job %d already %s", id, job.state)
	}
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (s *Scheduler) Wait(ctx context.Context, id int64) (JobStatus, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	select {
	case <-job.done:
		return s.Status(id)
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// Drain blocks until every submitted job is terminal or ctx expires.
func (s *Scheduler) Drain(ctx context.Context) error {
	for {
		s.mu.Lock()
		var pending chan struct{}
		for _, job := range s.order {
			if !job.state.Terminal() {
				pending = job.done
				break
			}
		}
		s.mu.Unlock()
		if pending == nil {
			return nil
		}
		select {
		case <-pending:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Runner returns the configured job runner, letting API layers probe
// its optional capabilities (e.g. the fleet status surface).
func (s *Scheduler) Runner() Runner { return s.cfg.Runner }

// Close stops the scheduler: queued jobs are cancelled, running
// transfers' contexts are cancelled, and Close blocks until all workers
// return. Submit fails with ErrClosed afterwards.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for s.queue.Len() > 0 {
			job := heap.Pop(&s.queue).(*Job)
			if job.state != Queued {
				continue
			}
			job.cancelled = true
			job.state = Cancelled
			job.err = ErrCancelled
			job.finished = time.Now()
			close(job.done)
		}
		for _, job := range s.active {
			job.cancelled = true
		}
	}
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}

// statusLocked snapshots a job. Caller holds mu.
func (s *Scheduler) statusLocked(job *Job) JobStatus {
	st := JobStatus{
		ID:             job.ID,
		Name:           job.Spec.Name,
		State:          job.state.String(),
		Priority:       job.Spec.Priority,
		Attempts:       job.attempts,
		Share:          job.share,
		Threads:        job.last.N,
		Throughput:     job.last.Throughput,
		TotalBytes:     job.Spec.Manifest.TotalBytes(),
		Submitted:      job.submitted,
		Started:        job.started,
		Finished:       job.finished,
		SessionID:      job.session,
		Resumes:        job.resumes,
		SkippedBytes:   job.skipped,
		CommittedBytes: job.committed,
	}
	if job.result != nil {
		st.AvgMbps = job.result.AvgMbps
		st.Seconds = job.result.Duration.Seconds()
		if job.state == Done {
			st.CommittedBytes = st.TotalBytes
		}
	}
	if job.err != nil {
		st.Error = job.err.Error()
	}
	return st
}

// Status snapshots one job.
func (s *Scheduler) Status(id int64) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	return s.statusLocked(job), nil
}

// List snapshots all jobs in submission order.
func (s *Scheduler) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, len(s.order))
	for i, job := range s.order {
		out[i] = s.statusLocked(job)
	}
	return out
}

// stageNames are the budget dimension labels, taken from the env stage
// enum so metrics and the API never drift from the action space.
var stageNames = env.StageNames()

// Snapshot exports the scheduler's state as a metrics snapshot: global
// budget and job counts, plus per-active-job shares, observed threads and
// throughputs, and per-completed-job results.
func (s *Scheduler) Snapshot() metrics.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	var snap metrics.Snapshot
	for i, name := range stageNames {
		snap.Add("automdt_sched_budget", float64(s.cfg.Budget[i]), metrics.L("stage", name))
	}
	counts := make(map[JobState]int)
	var bytesDone int64
	for _, job := range s.order {
		counts[job.state]++
		if job.state == Done {
			// Dataset volume, not the final attempt's planned bytes — a
			// resumed job's last Result covers only the post-skip
			// remainder, and the counter must not depend on crash timing.
			bytesDone += job.Spec.Manifest.TotalBytes()
		}
	}
	for _, st := range jobStates {
		snap.Add("automdt_sched_jobs", float64(counts[st]), metrics.L("state", st.String()))
	}
	snap.Add("automdt_sched_submitted_total", float64(len(s.order)))
	snap.Add("automdt_sched_retries_total", float64(s.retries))
	snap.Add("automdt_sched_bytes_done_total", float64(bytesDone))
	snap.Merge(s.arena.Snapshot())
	snap.Merge(metrics.ResumeSnapshot())
	snap.Merge(flight.Default().MetricsSnapshot())
	// A runner that fronts shared infrastructure (the FleetRunner's
	// multi-session receivers) exports its own gauges.
	if rs, ok := s.cfg.Runner.(interface{ Snapshot() metrics.Snapshot }); ok {
		snap.Merge(rs.Snapshot())
	}
	for _, job := range s.order {
		id := metrics.L("job", strconv.FormatInt(job.ID, 10))
		switch job.state {
		case Running:
			for i, name := range stageNames {
				stage := metrics.L("stage", name)
				snap.Add("automdt_job_share", float64(job.share[i]), id, stage)
				snap.Add("automdt_job_threads", float64(job.last.N[i]), id, stage)
				snap.Add("automdt_job_throughput_mbps", job.last.Throughput[i], id, stage)
			}
			snap.Add("automdt_job_committed_bytes", float64(job.committed), id)
			snap.Add("automdt_job_resume_skipped_bytes", float64(job.skipped), id)
		case Done:
			if job.result != nil {
				snap.Add("automdt_job_avg_mbps", job.result.AvgMbps, id)
				snap.Add("automdt_job_bytes", float64(job.Spec.Manifest.TotalBytes()), id)
			}
		}
	}
	return snap
}
