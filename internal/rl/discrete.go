package rl

import (
	"math/rand"

	"automdt/internal/env"
	"automdt/internal/nn"
)

// DiscreteAgent is the discrete-action-space PPO variant used for the
// Fig. 4 ablation (§V-A). The paper defines "the concurrency values
// directly as actions"; in the discrete formulation that is a single
// categorical distribution over every concurrency tuple ⟨n_r, n_c, n_s,
// n_w⟩ ∈ [1, MaxActions]⁴ — a MaxActions⁴-way choice. This combinatorial
// action space is exactly why the discrete agent "failed miserably": the
// paper notes it would need a far richer state space and far longer
// training to work, and the extra connection dimension makes it another
// MaxActions× worse. Its training loop is Algorithm 2's with the
// categorical head in place of the Gaussian one.
type DiscreteAgent struct {
	Cfg NetConfig

	ppo   *nn.PPO
	batch nn.Batch
	rng   *rand.Rand
}

// NewDiscreteAgent builds a discrete PPO agent.
func NewDiscreteAgent(cfg NetConfig, seed int64) *DiscreteAgent {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	joint := 1
	for i := 0; i < env.ActionDim; i++ {
		joint *= cfg.MaxActions
	}
	return &DiscreteAgent{
		Cfg: cfg,
		ppo: nn.NewPPO(env.StateDim, cfg.Hidden, cfg.PolicyBlocks, cfg.ValueBlocks, joint, true, rng),
		rng: rng,
	}
}

// encode maps a 1-based concurrency tuple to its joint action index.
func (a *DiscreteAgent) encode(t [env.StageCount]int) int {
	idx := 0
	for _, v := range t {
		idx = idx*a.Cfg.MaxActions + (v - 1)
	}
	return idx
}

// decode maps a joint action index back to the 1-based tuple.
func (a *DiscreteAgent) decode(idx int) [env.StageCount]int {
	var t [env.StageCount]int
	for i := len(t) - 1; i >= 0; i-- {
		t[i] = idx%a.Cfg.MaxActions + 1
		idx /= a.Cfg.MaxActions
	}
	return t
}

// sample draws a concurrency tuple (1-based) for a single state.
func (a *DiscreteAgent) sample(state []float64) [env.StageCount]int {
	return a.decode(a.ppo.Choose(state, a.rng))
}

func (a *DiscreteAgent) collect(e env.Environment, cfg TrainConfig) float64 {
	b := &a.batch
	b.Resize(cfg.StepsPerEpisode, env.StateDim, 0)
	rate, buf := e.Scales()
	maxT := e.MaxThreads()
	rawSum := 0.0
	s := e.Reset()
	for step := 0; step < b.N; step++ {
		vec := s.Vector(maxT, rate, buf)
		copy(b.States[step*env.StateDim:], vec)
		act := env.Action{N: a.sample(vec)}.Clamp(maxT)
		next, r := e.Step(act)
		b.Choices[step] = a.encode(act.N)
		b.Returns[step] = r / cfg.rewardScale()
		rawSum += r
		s = next
	}
	discount(b)
	return rawSum
}

// Train runs the Algorithm 2 loop with the discrete policy.
func (a *DiscreteAgent) Train(e env.Environment, cfg TrainConfig) *TrainResult {
	cfg = cfg.withDefaults()
	if cfg.Seed != 0 {
		a.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return train(a.ppo, &a.batch, cfg, func() float64 { return a.collect(e, cfg) }, nil)
}
