// Package marlin reimplements the Marlin baseline (Arifuzzaman & Arslan,
// ICS'23) as described in §II–III of the AutoMDT paper: a modular
// transfer optimizer that tunes each concurrency dimension with
// *independent* single-variable gradient-descent (hill climbing)
// optimizers over the per-dimension utility uᵢ = tᵢ/k^{nᵢ}. With the
// striped data plane there are four such climbers — read, conns,
// streams-per-conn, and write — the network climbers sharing the observed
// network rate.
//
// Because each optimizer ignores the buffer coupling between stages
// (Fig. 1), the estimated gradients are polluted by the other stages'
// moves; the paper attributes Marlin's instability and slow convergence
// to exactly this, and this implementation reproduces that behaviour.
package marlin

import (
	"math"

	"automdt/internal/env"
)

// Optimizer is the independent-hill-climbers controller, one climber per
// stage dimension.
type Optimizer struct {
	// K is the utility penalty base (default env.DefaultK).
	K float64
	// MaxStep caps the per-decision concurrency change (default 4).
	MaxStep int
	// Tol is the relative utility-change threshold below which the
	// gradient is treated as flat (default 0.01).
	Tol float64
	// Hold is the number of probe intervals each configuration is held
	// before the next gradient estimate (default 1). Marlin needs 3–5 s
	// of stable metrics per configuration on real systems (§IV), so the
	// experiment harness uses Hold=3 with 1 s ticks.
	Hold int

	stages  [env.StageCount]stageState
	holdCnt int
}

type stageState struct {
	prevN   int
	prevU   float64
	dir     int
	step    int
	haveObs bool
}

// New creates a Marlin optimizer with the paper-matching defaults.
func New() *Optimizer {
	return &Optimizer{K: env.DefaultK, MaxStep: 4, Tol: 0.01}
}

// Name implements env.Controller.
func (o *Optimizer) Name() string { return "marlin" }

func (o *Optimizer) k() float64 {
	if o.K <= 0 {
		return env.DefaultK
	}
	return o.K
}

func (o *Optimizer) maxStep() int {
	if o.MaxStep <= 0 {
		return 4
	}
	return o.MaxStep
}

func (o *Optimizer) tol() float64 {
	if o.Tol <= 0 {
		return 0.01
	}
	return o.Tol
}

// Decide implements env.Controller. Each dimension independently
// estimates the sign of dU/dn from its last move and hill-climbs
// accordingly.
func (o *Optimizer) Decide(s env.State) env.Action {
	if o.Hold > 1 {
		if o.holdCnt > 0 {
			o.holdCnt--
			return env.Action{N: s.N}.Clamp(1 << 30)
		}
		o.holdCnt = o.Hold - 1
	}
	var a env.Action
	for i := env.Stage(0); i < env.StageCount; i++ {
		n := s.N[i]
		u := s.Throughput[i] / math.Pow(o.k(), float64(n))
		st := &o.stages[i]

		next := n
		switch {
		case !st.haveObs:
			// Bootstrap: probe upward.
			st.dir, st.step = +1, 1
			next = n + 1
		default:
			dn := n - st.prevN
			du := u - st.prevU
			rel := 0.0
			if st.prevU > 0 {
				rel = du / st.prevU
			} else if du > 0 {
				rel = 1
			}
			switch {
			case dn == 0:
				// Our previous request was clamped or unchanged; probe in
				// the current direction, bouncing off the floor: at n = 1 a
				// downward request is clamped back to 1, so asking again
				// would hold the climber there forever.
				if n+st.dir < 1 {
					st.dir = -st.dir
				}
				next = n + st.dir
			case rel > o.tol():
				// Utility moved with the step: keep going, accelerate.
				if (du > 0) == (dn > 0) {
					st.dir = +1
				} else {
					st.dir = -1
				}
				st.step *= 2
				if st.step > o.maxStep() {
					st.step = o.maxStep()
				}
				next = n + st.dir*st.step
			case rel < -o.tol():
				// Utility moved against the step: reverse, slow down.
				if (du > 0) == (dn > 0) {
					st.dir = +1
				} else {
					st.dir = -1
				}
				st.step = 1
				next = n + st.dir*st.step
			default:
				// Flat gradient: small probe upward to keep exploring.
				next = n + st.dir
			}
		}
		st.prevN, st.prevU, st.haveObs = n, u, true
		a.N[i] = next
	}
	return a.Clamp(1 << 30) // engine clamps to its own MaxThreads
}

// ScoredAlternatives implements env.AlternativeScorer: the counter-moves
// each hill climber weighed against its chosen direction — holding the
// current tuple, and reversing any dimension's current direction — scored
// by the same utility the climbers maximize. Call after Decide for the
// same state; the directions reflect the latest gradient estimates.
func (o *Optimizer) ScoredAlternatives(s env.State) []env.ScoredAction {
	k := o.k()
	out := make([]env.ScoredAction, 0, int(env.StageCount)+1)
	out = append(out, env.ScoredAction{
		Action: env.Action{N: s.N},
		Score:  env.Utility(s.Throughput, env.Action{N: s.N}, k),
		Label:  "hold",
	})
	for i := env.Stage(0); i < env.StageCount; i++ {
		st := o.stages[i]
		if !st.haveObs || st.dir == 0 || st.step == 0 {
			continue
		}
		t := s.N
		t[i] -= st.dir * st.step
		if t[i] < 1 {
			continue
		}
		out = append(out, env.ScoredAction{
			Action: env.Action{N: t},
			Score:  env.Utility(s.Throughput, env.Action{N: t}, k),
			Label:  "reverse:" + i.String(),
		})
	}
	return out
}

// Reset clears optimizer state so the instance can drive a fresh run.
func (o *Optimizer) Reset() {
	o.stages = [env.StageCount]stageState{}
	o.holdCnt = 0
}
