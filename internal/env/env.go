// Package env defines the reinforcement-learning environment that
// AutoMDT's PPO agent interacts with: the state space (per-stage
// concurrency, per-stage throughputs, and free staging-buffer space at
// both ends, §IV-D-1), the action space (the concurrency tuple over the
// named stage dimensions, §IV-D-2 extended with a connection dimension),
// and the utility-function reward of §IV-B:
//
//	U = Σᵢ tᵢ/k^{nᵢ},  k = 1.02
//
// The paper's action space is the 3-tuple ⟨n_r, n_n, n_w⟩; this package
// generalizes it to named stage dimensions so the data plane's striped
// multi-connection knob is a first-class controller dimension:
//
//	⟨n_r, n_c, n_s, n_w⟩ = ⟨read, conns, streams-per-conn, write⟩
//
// where n_c is the number of parallel data connections a session stripes
// its chunks across and n_s the number of concurrent streams (workers)
// multiplexed over each connection, so the total network concurrency is
// n_c·n_s.
//
// The same Environment interface is implemented by the offline simulator
// (SimEnv, used for training) and by the live transfer engine
// (internal/core wraps the engine in the production phase), which is what
// lets a simulator-trained checkpoint drive a real transfer unchanged.
package env

import (
	"fmt"
	"math"
	"math/rand"

	"automdt/internal/sim"
)

// DefaultK is the utility penalty base fixed by the paper's link sweep.
const DefaultK = 1.02

// Stage names one dimension of the concurrency action space. Unlike
// sim.Stage (the three physical pipeline operations), Stage indexes the
// knobs a controller tunes: the network stage contributes two dimensions,
// connection count and streams per connection.
type Stage int

// The named stage dimensions of the action space.
const (
	// StageRead is the file-read concurrency n_r.
	StageRead Stage = iota
	// StageConns is the parallel data-connection count n_c.
	StageConns
	// StageStreams is the per-connection stream (worker) count n_s; the
	// total network concurrency is n_c·n_s.
	StageStreams
	// StageWrite is the destination write concurrency n_w.
	StageWrite
	// StageCount is the number of action dimensions.
	StageCount
)

// String returns the short dimension name used in traces and metrics.
func (s Stage) String() string {
	switch s {
	case StageRead:
		return "read"
	case StageConns:
		return "conns"
	case StageStreams:
		return "streams"
	case StageWrite:
		return "write"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// StageNames lists the dimension names in Stage order.
func StageNames() [StageCount]string {
	var out [StageCount]string
	for s := Stage(0); s < StageCount; s++ {
		out[s] = s.String()
	}
	return out
}

// StageVec is a per-stage-dimension vector of real values (throughputs,
// utilities, scores). The network throughput is attributed to both the
// conns and streams dimensions, mirroring how the utility function
// penalizes each knob independently.
type StageVec [StageCount]float64

// StateDim is the size of the observation vector:
// StageCount concurrency values, StageCount throughputs, 2 free-buffer
// amounts.
const StateDim = 2*int(StageCount) + 2

// ActionDim is the size of the action vector: one concurrency value per
// stage dimension.
const ActionDim = int(StageCount)

// State is the observation handed to the agent.
type State struct {
	// N is the current concurrency tuple ⟨n_r, n_c, n_s, n_w⟩.
	N [StageCount]int
	// Throughput holds the last-interval per-dimension rates in Mbps;
	// Throughput[StageConns] and Throughput[StageStreams] both carry the
	// network rate t_n.
	Throughput   StageVec
	SenderFree   float64 // unused sender staging space, Mb
	ReceiverFree float64 // unused receiver staging space, Mb
}

// Vector flattens the state, normalizing by the given scales so network
// inputs are O(1): concurrency by maxThreads, throughputs by rateScale,
// buffer space by bufScale.
func (s State) Vector(maxThreads int, rateScale, bufScale float64) []float64 {
	v := make([]float64, 0, StateDim)
	for i := Stage(0); i < StageCount; i++ {
		v = append(v, float64(s.N[i])/float64(maxThreads))
	}
	for i := Stage(0); i < StageCount; i++ {
		v = append(v, s.Throughput[i]/rateScale)
	}
	v = append(v, s.SenderFree/bufScale, s.ReceiverFree/bufScale)
	return v
}

// Action is the concurrency tuple chosen by the agent, one value per
// named stage dimension.
type Action struct {
	N [StageCount]int
}

// ActionOf builds an action from the four dimension values.
func ActionOf(read, conns, streams, write int) Action {
	return Action{N: [StageCount]int{read, conns, streams, write}}
}

// Clamp limits each component to [1, maxThreads] (§IV-F).
func (a Action) Clamp(maxThreads int) Action {
	for i := range a.N {
		if a.N[i] < 1 {
			a.N[i] = 1
		}
		if a.N[i] > maxThreads {
			a.N[i] = maxThreads
		}
	}
	return a
}

// NetWorkers is the total network concurrency n_c·n_s implied by the
// action.
func (a Action) NetWorkers() int {
	return a.N[StageConns] * a.N[StageStreams]
}

// FromContinuous rounds a raw policy sample to an integer action,
// matching §IV-F: round then clamp. Missing trailing dimensions (a raw
// slice shorter than ActionDim) clamp to 1.
func FromContinuous(raw []float64, maxThreads int) Action {
	var a Action
	for i := 0; i < int(StageCount) && i < len(raw); i++ {
		a.N[i] = int(math.Round(raw[i]))
	}
	return a.Clamp(maxThreads)
}

// Utility computes the paper's reward generalized over the named stage
// dimensions: U = Σᵢ tᵢ/k^{nᵢ}. Throughputs are in Mbps; higher
// concurrency on any dimension is exponentially penalized. The caller
// supplies the throughput attribution (ThroughputVec builds the standard
// one from physical rates).
func Utility(t StageVec, a Action, k float64) float64 {
	u := 0.0
	for i := Stage(0); i < StageCount; i++ {
		u += t[i] / math.Pow(k, float64(a.N[i]))
	}
	return u
}

// ThroughputVec attributes the three physical stage rates to the four
// controller dimensions: the network rate t_n is charged to both the
// conns and streams knobs.
func ThroughputVec(read, network, write float64) StageVec {
	return StageVec{read, network, network, write}
}

// Controller decides the next concurrency tuple from the latest observed
// transfer state. It is the engine-facing abstraction implemented by the
// AutoMDT agent (internal/core), the Marlin baseline (internal/marlin),
// and the static Globus-like baseline (internal/static).
type Controller interface {
	// Name identifies the optimizer in traces and reports.
	Name() string
	// Decide maps the observed state to the concurrency tuple to apply
	// for the next interval.
	Decide(State) Action
}

// Environment is the PPO-facing interface (E in Algorithm 2).
type Environment interface {
	// Reset starts a new episode and returns the initial state.
	Reset() State
	// Step applies the action, advances one interval, and returns the
	// new state and the utility reward.
	Step(Action) (State, float64)
	// MaxThreads is the per-dimension concurrency bound n_max.
	MaxThreads() int
	// Scales returns normalization constants for State.Vector.
	Scales() (rateScale, bufScale float64)
}

// SimEnv adapts the Algorithm 1 simulator to the Environment interface,
// with randomized episode initialization: Reset draws fresh random
// concurrency tuples (the paper resets each episode "with a new set of
// randomly initialized threads") and random staging occupancies.
type SimEnv struct {
	Sim *sim.Simulator
	// K is the utility penalty base; DefaultK if zero.
	K float64
	// MaxThreadsN bounds each concurrency value; 32 if zero.
	MaxThreadsN int
	// Rand drives episode randomization.
	Rand *rand.Rand
	// RateDrift, when positive, additionally randomizes per-task rates at
	// episode reset: each stage independently keeps its probed rate with
	// probability one half, or is scaled by a uniform factor drawn from
	// [1-RateDrift, 1]. Training across drifted episodes teaches the
	// policy to re-expand a dimension's concurrency when its per-worker
	// throughput degrades mid-transfer (background traffic, a throttled
	// disk) instead of memorizing the fixed-rate optimum. Observation
	// normalization (Scales) stays pinned to the probed rates so drifted
	// episodes look like degraded conditions, not a rescaled world.
	RateDrift float64

	cur State
	// base holds the probed per-task rates, captured before the first
	// drift so SetTPT perturbations never compound across episodes.
	base    [3]float64
	baseSet bool
}

// NewSimEnv builds a simulator-backed environment.
func NewSimEnv(s *sim.Simulator, rng *rand.Rand) *SimEnv {
	return &SimEnv{Sim: s, K: DefaultK, MaxThreadsN: 32, Rand: rng}
}

// MaxThreads implements Environment.
func (e *SimEnv) MaxThreads() int {
	if e.MaxThreadsN <= 0 {
		return 32
	}
	return e.MaxThreadsN
}

func (e *SimEnv) k() float64 {
	if e.K <= 0 {
		return DefaultK
	}
	return e.K
}

// Scales implements Environment. Rates are scaled by the smallest
// aggregate stage capacity (the end-to-end bottleneck), buffers by the
// sender capacity.
func (e *SimEnv) Scales() (rateScale, bufScale float64) {
	cfg := e.Sim.Config()
	tpt := cfg.TPT
	if e.baseSet {
		tpt = e.base
	}
	rateScale = math.Inf(1)
	for i := sim.Read; i <= sim.Write; i++ {
		agg := tpt[i] * float64(e.MaxThreads())
		if cfg.Bandwidth[i] > 0 {
			agg = math.Min(agg, cfg.Bandwidth[i])
		}
		if i == sim.Network && cfg.ConnMbps > 0 {
			agg = math.Min(agg, cfg.ConnMbps*float64(e.MaxThreads()))
		}
		rateScale = math.Min(rateScale, agg)
	}
	if math.IsInf(rateScale, 1) || rateScale <= 0 {
		rateScale = 1
	}
	return rateScale, cfg.SenderBufCap
}

// stateFrom converts a simulator step result into an observation.
func stateFrom(n [StageCount]int, res sim.Result) State {
	return State{
		N: n,
		Throughput: ThroughputVec(
			res.Throughput[sim.Read], res.Throughput[sim.Network], res.Throughput[sim.Write]),
		SenderFree:   res.SenderBufFree,
		ReceiverFree: res.ReceiverBufFree,
	}
}

// driftRates applies the per-episode RateDrift perturbation: restore the
// probed base rates, then independently degrade each stage with
// probability one half. Half-at-base episodes keep the convergence target
// (90% of the probed Rmax) reachable so early stopping still fires.
func (e *SimEnv) driftRates() {
	if e.RateDrift <= 0 || e.Rand == nil {
		return
	}
	if !e.baseSet {
		e.base = e.Sim.Config().TPT
		e.baseSet = true
	}
	for st := sim.Read; st <= sim.Write; st++ {
		f := 1.0
		if e.Rand.Float64() < 0.5 {
			f = 1 - e.RateDrift*e.Rand.Float64()
		}
		e.Sim.SetTPT(st, e.base[st]*f)
	}
}

// Reset implements Environment.
func (e *SimEnv) Reset() State {
	e.Sim.Reset()
	e.driftRates()
	cfg := e.Sim.Config()
	if e.Rand != nil {
		e.Sim.SetBuffers(
			e.Rand.Float64()*cfg.SenderBufCap,
			e.Rand.Float64()*cfg.ReceiverBufCap,
		)
	}
	var n [StageCount]int
	for i := range n {
		n[i] = 1
		if e.Rand != nil {
			n[i] = 1 + e.Rand.Intn(e.MaxThreads())
		}
	}
	// Run one settling step so the initial state carries real
	// throughput/buffer signals.
	res := e.Sim.Step(n[StageRead], n[StageConns], n[StageStreams], n[StageWrite])
	e.cur = stateFrom(n, res)
	return e.cur
}

// Step implements Environment.
func (e *SimEnv) Step(a Action) (State, float64) {
	a = a.Clamp(e.MaxThreads())
	res := e.Sim.Step(a.N[StageRead], a.N[StageConns], a.N[StageStreams], a.N[StageWrite])
	e.cur = stateFrom(a.N, res)
	return e.cur, Utility(e.cur.Throughput, a, e.k())
}

// TheoreticalMaxReward computes Rmax = b·Σᵢ k^{-n*ᵢ} from the bottleneck
// rate and the optimal concurrency tuple (§IV-E generalized to the named
// stage dimensions), the convergence yardstick for training.
func TheoreticalMaxReward(bottleneck float64, nStar Action, k float64) float64 {
	r := 0.0
	for i := Stage(0); i < StageCount; i++ {
		r += bottleneck * math.Pow(k, -float64(nStar.N[i]))
	}
	return r
}
