// Package flight is the decision flight recorder: a lock-cheap,
// ring-buffered structured event log of every decision the transfer
// system makes, plus per-stage latency histograms at the pipeline seams.
//
// Two event families flow through one Recorder:
//
//   - Decision events. Every env.Controller tick (marlin, joint-gd,
//     static, the trained AutoMDT policy) records the observed state and
//     the chosen tuple; every budget-cap clamp records the wanted and the
//     granted tuple; the fleet records placements. Only the scheduler
//     arbiter's admissions and rebalances, whose objective is known,
//     carry scored alternatives and a regret (best unchosen score minus
//     chosen score). "Fleet P99 was bad" becomes "the arbiter starved
//     job 7 at tick 5000".
//
//   - Stage spans. The read/net/write stage seams in internal/transfer
//     and the queue wait in internal/sched time their per-chunk service
//     into log-bucketed metrics.Histogram aggregates, exported as
//     automdt_*_seconds{quantile} samples.
//
// The recorder is genuinely zero work when off: every entry point first
// loads one atomic flag and returns before any event is built, any clock
// is read, or any lock is taken. Rings are per source, so concurrent
// writers (one per live session plus the scheduler) rarely contend, and
// a full ring overwrites its oldest events rather than blocking or
// growing. Controller sources are keyed by session, so a retried attempt
// appends to the same ring and a multi-attempt session reads as one
// sequence.
package flight

import (
	"sort"
	"sync"
	"sync/atomic"

	"automdt/internal/env"
	"automdt/internal/metrics"
)

// Event kinds.
const (
	// KindDecision is one controller Decide tick.
	KindDecision = "decision"
	// KindAdmission is the scheduler starting one queued job.
	KindAdmission = "admission"
	// KindRebalance is one arbiter budget split across active jobs.
	KindRebalance = "rebalance"
	// KindCap is a budget cap clamping a controller's decision.
	KindCap = "cap"
	// KindReplan is a sender re-planning a dead data connection's
	// in-flight chunks onto survivors (the protocol ≥3 targeted-recovery
	// path). Chosen.Score carries the bytes re-sent; Note records the
	// cause and how many chunks the receiver's ledger pull saved.
	KindReplan = "replan"
	// KindPlace is the fleet placement ring assigning a session to an
	// endpoint. Note records the endpoint and ring state.
	KindPlace = "place"
	// KindReplace is a fleet failover re-placement: a session whose
	// endpoint died resuming on a sibling. Note records victim and
	// successor endpoints.
	KindReplace = "replace"
)

// scored reports whether events of a kind carry scores and a regret:
// only the arbiter's admissions and rebalances, whose objective is
// known. A zero score or regret is omitted from the JSON, so on these
// kinds an absent "regret" means zero; on every other kind it means
// unscored.
func scored(kind string) bool { return kind == KindAdmission || kind == KindRebalance }

// Alt is one candidate action. On the scored kinds, admission and
// rebalance, the score is the arbiter's objective for the candidate:
// job priority for an admission, weighted proportional fairness for a
// rebalance. Other kinds score nothing, with two markers: a replan's
// chosen score is the bytes it re-sends, and a replace marks its dead
// victim −1. A zero score is omitted from the JSON.
type Alt struct {
	// N is the candidate concurrency tuple (decision/cap events), one
	// value per env.Stage dimension ⟨read, conns, streams, write⟩.
	N [env.StageCount]int `json:"threads"`
	// Score is the candidate's score (higher is better).
	Score float64 `json:"score,omitempty"`
	// Label names non-tuple candidates (arbiter allocation policies).
	Label string `json:"label,omitempty"`
}

// Event is one recorded decision. Events are JSON-shaped for the
// /debug/flight endpoint and the -flight trace dumps.
type Event struct {
	// Seq is the per-source sequence number (monotonic from 1; gaps mean
	// the ring overwrote evicted events).
	Seq uint64 `json:"seq"`
	// UnixNano is the wall-clock timestamp.
	UnixNano int64 `json:"t"`
	// Source names the decider, e.g. "ctrl:job3-ab12cd:marlin" or
	// "sched:arbiter".
	Source string `json:"source"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// N and Throughput are the observed state the decision saw, indexed
	// by env.Stage ⟨read, conns, streams, write⟩.
	N          [env.StageCount]int `json:"state_threads,omitempty"`
	Throughput env.StageVec        `json:"state_throughput,omitempty"`
	// Chosen is the action taken, with its score on scored kinds.
	Chosen Alt `json:"chosen"`
	// Alts are the unchosen alternatives: a rebalance's rejected
	// policies, an admission's queued jobs (best first), the uncapped
	// tuple on a cap event, the victim on a replace.
	Alts []Alt `json:"alts,omitempty"`
	// Regret is max(0, best unchosen score − chosen score) on scored
	// kinds: how much better the best alternative was by the arbiter's
	// own objective.
	Regret float64 `json:"regret,omitempty"`
	// CumRegret is the source's regret accumulated over its whole trace.
	CumRegret float64 `json:"cum_regret,omitempty"`
	// Note carries decision-specific context (job ids, queue wait,
	// allocation summaries).
	Note string `json:"note,omitempty"`
}

// ring is one source's fixed-capacity event buffer.
type ring struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever appended; Seq = next after increment
}

func (r *ring) append(ev Event) (seq uint64, dropped bool) {
	r.mu.Lock()
	r.next++
	ev.Seq = r.next
	i := int((r.next - 1) % uint64(cap(r.buf)))
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[i] = ev
		dropped = true
	}
	r.mu.Unlock()
	return ev.Seq, dropped
}

// events returns the ring's live events with Seq >= since, in order.
func (r *ring) events(since uint64) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) == 0 {
		return out
	}
	// Oldest live event starts at next-len(buf)+1; the buffer wraps at
	// cap, so walk seq order rather than slice order.
	first := r.next - uint64(len(r.buf)) + 1
	for seq := first; seq <= r.next; seq++ {
		if seq < since {
			continue
		}
		out = append(out, r.buf[int((seq-1)%uint64(cap(r.buf)))])
	}
	return out
}

// DefaultCapacity is the per-source ring capacity used when Enable is
// called with a non-positive capacity: at the engine's default 250 ms
// probe interval this holds about 17 minutes of controller decisions.
const DefaultCapacity = 4096

// Recorder is a set of per-source event rings behind one atomic enabled
// flag, plus the stage-latency histograms. The zero value is a disabled
// recorder; most callers use the process-wide Default().
type Recorder struct {
	enabled atomic.Bool
	rcap    atomic.Int64

	mu      sync.RWMutex
	sources map[string]*ring
	hists   map[string]*metrics.Histogram
	horder  []string

	recorded atomic.Int64
	dropped  atomic.Int64
}

// NewRecorder creates a disabled recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		sources: make(map[string]*ring),
		hists:   make(map[string]*metrics.Histogram),
	}
}

// Enable turns recording on with the given per-source ring capacity
// (DefaultCapacity when n <= 0). Already-recorded events are kept;
// changing the capacity applies to rings created afterwards.
func (r *Recorder) Enable(n int) {
	if n <= 0 {
		n = DefaultCapacity
	}
	r.rcap.Store(int64(n))
	r.enabled.Store(true)
}

// Disable turns recording off. Events already recorded remain readable.
func (r *Recorder) Disable() { r.enabled.Store(false) }

// Active reports whether the recorder accepts events — the one-atomic
// check every instrumentation point makes before doing any work.
func (r *Recorder) Active() bool { return r.enabled.Load() }

// Record appends ev to its source's ring, assigning the sequence number.
// It is a no-op when the recorder is off. Callers on hot paths should
// check Active before building the event at all.
func (r *Recorder) Record(ev Event) {
	if !r.enabled.Load() || ev.Source == "" {
		return
	}
	r.mu.RLock()
	rg := r.sources[ev.Source]
	r.mu.RUnlock()
	if rg == nil {
		r.mu.Lock()
		rg = r.sources[ev.Source]
		if rg == nil {
			rg = &ring{buf: make([]Event, 0, int(r.rcap.Load()))}
			r.sources[ev.Source] = rg
		}
		r.mu.Unlock()
	}
	if _, dropped := rg.append(ev); dropped {
		r.dropped.Add(1)
	}
	r.recorded.Add(1)
}

// Sources returns the recorded source names, sorted.
func (r *Recorder) Sources() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.sources))
	for s := range r.sources {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Dump returns the live events of one source (or of every source when
// source is empty), restricted to Seq >= since, grouped by source in
// sorted-source order and in sequence order within each source.
func (r *Recorder) Dump(source string, since uint64) []Event {
	if source != "" {
		r.mu.RLock()
		rg := r.sources[source]
		r.mu.RUnlock()
		if rg == nil {
			return nil
		}
		return rg.events(since)
	}
	var out []Event
	for _, s := range r.Sources() {
		r.mu.RLock()
		rg := r.sources[s]
		r.mu.RUnlock()
		if rg != nil {
			out = append(out, rg.events(since)...)
		}
	}
	return out
}

// Reset drops every recorded event and zeroes the stage histograms and
// counters, keeping the enabled state.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.sources = make(map[string]*ring)
	hists := make([]*metrics.Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()
	for _, h := range hists {
		h.Reset()
	}
	r.recorded.Store(0)
	r.dropped.Store(0)
}

// Hist returns (creating if necessary) the named stage histogram.
func (r *Recorder) Hist(stage string) *metrics.Histogram {
	r.mu.RLock()
	h := r.hists[stage]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[stage]; h == nil {
		h = &metrics.Histogram{}
		r.hists[stage] = h
		r.horder = append(r.horder, stage)
	}
	return h
}

// MetricsSnapshot exports the recorder's counters and every stage
// histogram in the shared text format: automdt_flight_* counters plus
// one automdt_stage_<stage>_seconds{quantile} family per seam.
func (r *Recorder) MetricsSnapshot() metrics.Snapshot {
	var snap metrics.Snapshot
	enabled := 0.0
	if r.Active() {
		enabled = 1
	}
	snap.Add("automdt_flight_enabled", enabled)
	snap.Add("automdt_flight_events_total", float64(r.recorded.Load()))
	snap.Add("automdt_flight_events_evicted_total", float64(r.dropped.Load()))
	r.mu.RLock()
	snap.Add("automdt_flight_sources", float64(len(r.sources)))
	stages := append([]string(nil), r.horder...)
	r.mu.RUnlock()
	sort.Strings(stages)
	for _, stage := range stages {
		snap.AddHistogram("automdt_stage_"+stage+"_seconds", r.Hist(stage))
	}
	return snap
}

// defaultRecorder is the process-wide recorder that the transfer engine,
// the scheduler, and the cmd binaries share — mirroring the process-wide
// transfer arena and resume counters, so wiring a recorder through every
// layer is not a config-plumbing exercise.
var defaultRecorder = NewRecorder()

// Default returns the process-wide recorder.
func Default() *Recorder { return defaultRecorder }

// Enable turns the process-wide recorder on (capacity <= 0 means
// DefaultCapacity per source).
func Enable(capacity int) { defaultRecorder.Enable(capacity) }

// Active reports whether the process-wide recorder accepts events.
func Active() bool { return defaultRecorder.Active() }

// Record appends to the process-wide recorder.
func Record(ev Event) { defaultRecorder.Record(ev) }
