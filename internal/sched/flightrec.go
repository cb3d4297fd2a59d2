package sched

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"automdt/internal/env"
	"automdt/internal/flight"
)

// ArbiterSource is the flight-recorder source for the scheduler's own
// decisions: admissions and budget rebalances.
const ArbiterSource = "sched:arbiter"

// CapSource is the flight-recorder source for budget-cap clamp events —
// the moments a controller wanted more workers than its arbiter share
// allowed, the direct evidence trail for "the arbiter starved job N".
const CapSource = "sched:cap"

// queuedAlts is how many still-queued jobs an admission event keeps as
// its alternatives, highest priority first.
const queuedAlts = 3

// allocScore is the arbiter's counterfactual objective: weighted
// proportional fairness Σⱼ Σ_stage wⱼ·log(shareⱼ). It rewards both total
// allocation and priority-proportional splits, so "give everything to
// one job" and "ignore priorities" both score visibly worse than the
// largest-remainder split when they are worse, and no better when they
// are not.
func allocScore(shares [][env.StageCount]int, weights []int) float64 {
	u := 0.0
	for j, sh := range shares {
		w := float64(weights[j])
		for _, n := range sh {
			if n < 1 {
				n = 1
			}
			u += w * math.Log(float64(n))
		}
	}
	return u
}

// allocFor builds a per-job allocation by applying split to every stage
// budget.
func allocFor(budget [env.StageCount]int, weights []int, split func(total int, weights []int) []int) [][env.StageCount]int {
	shares := make([][env.StageCount]int, len(weights))
	for stage := 0; stage < int(env.StageCount); stage++ {
		st := split(budget[stage], weights)
		for j := range shares {
			shares[j][stage] = st[j]
		}
	}
	return shares
}

// equalSplit is fairShare with priorities ignored.
func equalSplit(total int, weights []int) []int {
	eq := make([]int, len(weights))
	for i := range eq {
		eq[i] = 1
	}
	return fairShare(total, eq)
}

// greedySplit gives the highest-weight job everything above the
// one-worker floor the others keep.
func greedySplit(total int, weights []int) []int {
	shares := make([]int, len(weights))
	best := 0
	for i, w := range weights {
		shares[i] = 1
		if w > weights[best] {
			best = i
		}
	}
	if rest := total - len(weights) + 1; rest > shares[best] {
		shares[best] = rest
	}
	return shares
}

// recordRebalance logs one arbiter allocation as a flight decision: the
// chosen priority-fair split scored against the two allocation policies
// it implicitly rejected. ids/weights/alloc describe the active set in
// ascending-ID order. Caller holds s.mu; the caller has already checked
// flight.Active.
func (s *Scheduler) recordRebalance(ids []int64, weights []int, alloc map[int64][env.StageCount]int) {
	chosenShares := make([][env.StageCount]int, len(ids))
	var note strings.Builder
	for i, id := range ids {
		chosenShares[i] = alloc[id]
		if i > 0 {
			note.WriteByte(' ')
		}
		fmt.Fprintf(&note, "job%d=%v", id, alloc[id])
	}
	chosen := allocScore(chosenShares, weights)
	alts := []flight.Alt{
		{Label: "equal-split", Score: allocScore(allocFor(s.cfg.Budget, weights, equalSplit), weights)},
		{Label: "priority-greedy", Score: allocScore(allocFor(s.cfg.Budget, weights, greedySplit), weights)},
	}
	best := chosen
	for _, a := range alts {
		if a.Score > best {
			best = a.Score
		}
	}
	s.flightCum += best - chosen
	flight.Record(flight.Event{
		UnixNano:  time.Now().UnixNano(),
		Source:    ArbiterSource,
		Kind:      flight.KindRebalance,
		N:         s.cfg.Budget,
		Chosen:    flight.Alt{Label: "priority-fair", Score: chosen},
		Alts:      alts,
		Regret:    best - chosen,
		CumRegret: s.flightCum,
		Note:      note.String(),
	})
}

// recordAdmission logs one job start: the admitted job against the
// candidates still queued (priority-scored), plus its queue wait, which
// also feeds the queue_wait histogram. Caller holds s.mu and has checked
// flight.Active.
func (s *Scheduler) recordAdmission(job *Job, wait time.Duration) {
	chosen := flight.Alt{Label: fmt.Sprintf("job%d", job.ID), Score: float64(job.Spec.Priority)}
	var alts []flight.Alt
	best := chosen.Score
	for _, q := range s.queue {
		if q.state != Queued {
			continue
		}
		alts = append(alts, flight.Alt{Label: fmt.Sprintf("job%d", q.ID), Score: float64(q.Spec.Priority)})
		if float64(q.Spec.Priority) > best {
			best = float64(q.Spec.Priority)
		}
	}
	sort.SliceStable(alts, func(i, j int) bool { return alts[i].Score > alts[j].Score })
	if len(alts) > queuedAlts {
		alts = alts[:queuedAlts]
	}
	s.flightCum += best - chosen.Score
	flight.Record(flight.Event{
		UnixNano:  time.Now().UnixNano(),
		Source:    ArbiterSource,
		Kind:      flight.KindAdmission,
		Chosen:    chosen,
		Alts:      alts,
		Regret:    best - chosen.Score,
		CumRegret: s.flightCum,
		Note: fmt.Sprintf("job=%d name=%q attempt=%d wait=%.3fs",
			job.ID, job.Spec.Name, job.attempts, wait.Seconds()),
	})
}

// capClampHook builds the env.BudgetCap OnClamp callback for one job:
// every time the budget binds it records a cap event with the granted
// tuple as chosen and the wanted tuple as the "uncapped" alternative.
// It scores neither: a clamp only lowers counts, so the one-step utility
// at observed throughput could never call it a loss. Runs on the
// transfer probe goroutine; it takes no scheduler locks.
func capClampHook(job *Job) func(st env.State, wanted, got env.Action, caps [env.StageCount]int) {
	id, session := job.ID, job.session
	return func(st env.State, wanted, got env.Action, caps [env.StageCount]int) {
		if !flight.Active() {
			return
		}
		flight.Record(flight.Event{
			UnixNano:   time.Now().UnixNano(),
			Source:     CapSource,
			Kind:       flight.KindCap,
			N:          st.N,
			Throughput: st.Throughput,
			Chosen:     flight.Alt{N: got.N},
			Alts:       []flight.Alt{{N: wanted.N, Label: "uncapped"}},
			Note:       fmt.Sprintf("job=%d session=%s cap=%v", id, session, caps),
		})
	}
}
