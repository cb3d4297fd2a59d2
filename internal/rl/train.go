// Package rl implements the Proximal Policy Optimization agent of
// AutoMDT (§IV-D and Algorithm 2): a continuous Gaussian policy over the
// concurrency tuple ⟨n_r, n_c, n_s, n_w⟩ with the residual policy/value
// network architectures the paper describes, plus the discrete-action
// variant used as the failed ablation of Fig. 4. The networks and their
// PPO update are internal/nn's fixed-shape kernels; this package collects
// episodes, discounts their rewards, and runs Algorithm 2's outer loop.
package rl

import (
	"io"
	"math/rand"
	"sync"

	"automdt/internal/env"
	"automdt/internal/nn"
)

const (
	// gamma is the discount factor γ.
	gamma = 0.99
	// convergeFrac is the fraction of the episode-level maximum reward
	// that counts as converged (paper: 0.9).
	convergeFrac = 0.9
)

// NetConfig sizes the policy and value networks. The zero value is
// replaced by the paper's architecture: 256-wide embedding, three
// residual blocks in the policy trunk, two tanh residual blocks in the
// value trunk.
type NetConfig struct {
	Hidden       int
	PolicyBlocks int
	ValueBlocks  int
	// MaxActions is the number of discrete choices per dimension for the
	// discrete policy (thread counts 1..MaxActions).
	MaxActions int
}

func (c NetConfig) withDefaults() NetConfig {
	if c.Hidden <= 0 {
		c.Hidden = 256
	}
	if c.PolicyBlocks <= 0 {
		c.PolicyBlocks = 3
	}
	if c.ValueBlocks <= 0 {
		c.ValueBlocks = 2
	}
	if c.MaxActions <= 0 {
		c.MaxActions = 32
	}
	return c
}

// TrainConfig parameterizes Algorithm 2.
type TrainConfig struct {
	// Episodes is the maximum episode count N. The paper caps at 30000.
	Episodes int
	// StepsPerEpisode is M; the paper uses 10.
	StepsPerEpisode int
	// LR is the Adam learning rate α.
	LR float64
	// EntropyCoef weights the entropy bonus (paper: 0.1).
	EntropyCoef float64
	// UpdateEpochs is the number of gradient updates per episode over the
	// collected batch. Algorithm 2 performs one.
	UpdateEpochs int
	// Rmax is the theoretical maximum *per-step* reward from the probe
	// phase; the episode-level target is StepsPerEpisode·Rmax. Rewards
	// are divided by it (or by 1 when unset) before learning, so returns
	// are O(1).
	Rmax float64
	// StagnantLimit is the number of non-improving episodes to wait after
	// convergence before stopping (paper: 1000).
	StagnantLimit int
	// OOBPenalty is the coefficient of the quadratic training penalty on
	// raw (pre-clamp) actions outside the normalized range [0, 1]. The
	// production rule rounds and clamps actions (§IV-F), which erases the
	// utility gradient once the policy mean drifts past the bound; this
	// penalty keeps the mean inside the actionable range. Applied to the
	// scaled reward during training only. Default 0.5; set negative to
	// disable.
	OOBPenalty float64
	// Seed drives action sampling and environment resets.
	Seed int64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Episodes <= 0 {
		c.Episodes = 30000
	}
	if c.StepsPerEpisode <= 0 {
		c.StepsPerEpisode = 10
	}
	if c.LR == 0 {
		c.LR = 3e-4
	}
	if c.EntropyCoef == 0 {
		c.EntropyCoef = 0.1
	}
	if c.UpdateEpochs <= 0 {
		c.UpdateEpochs = 1
	}
	if c.StagnantLimit <= 0 {
		c.StagnantLimit = 1000
	}
	if c.OOBPenalty == 0 {
		c.OOBPenalty = 0.5
	}
	return c
}

// rewardScale divides raw rewards before learning.
func (c TrainConfig) rewardScale() float64 {
	if c.Rmax > 0 {
		return c.Rmax
	}
	return 1
}

// TrainResult reports a training run.
type TrainResult struct {
	// EpisodeRewards holds the raw (unscaled) total reward of every
	// episode, the series plotted in Fig. 4.
	EpisodeRewards []float64
	// Episodes is the number of episodes actually run.
	Episodes int
	// Converged reports whether the Algorithm 2 convergence criterion
	// fired before the episode cap.
	Converged bool
	// BestReward is the best raw episode reward seen.
	BestReward float64
	// ConvergedAt is the episode index at which the 90%·Rmax threshold
	// was first reached, or -1.
	ConvergedAt int
}

// Agent is the continuous PPO agent: the Gaussian policy and the value
// network with their optimizer state.
type Agent struct {
	Cfg NetConfig

	ppo *nn.PPO
	// best holds the best checkpoint's parameters, once training found one.
	best  []float64
	batch nn.Batch
	rng   *rand.Rand
	// act serializes ActVec and ActMean: both run the policy in buffers
	// the network owns, and one deployed agent drives concurrent jobs.
	act sync.Mutex
}

// NewAgent builds a PPO agent with freshly initialized networks.
func NewAgent(cfg NetConfig, seed int64) *Agent {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	return &Agent{
		Cfg: cfg,
		ppo: nn.NewPPO(env.StateDim, cfg.Hidden, cfg.PolicyBlocks, cfg.ValueBlocks, env.ActionDim, false, rng),
		rng: rng,
	}
}

// Save writes a checkpoint of the agent's current parameters.
func (a *Agent) Save(w io.Writer) error { return nn.SaveParams(w, a.ppo.Tensors()) }

// Load restores a checkpoint written by Save into the agent.
func (a *Agent) Load(r io.Reader) error {
	if err := nn.LoadParams(r, a.ppo.Tensors()); err != nil {
		return err
	}
	a.ppo.SyncOld()
	return nil
}

// RestoreBest copies the best-seen checkpoint (tracked during Train) into
// the live networks. No-op if training has not run.
func (a *Agent) RestoreBest() {
	if a.best == nil {
		return
	}
	copy(a.ppo.Params, a.best)
	a.ppo.SyncOld()
}

// Act samples a concurrency action for the given environment state,
// applying the §IV-F production rule: sample from the Gaussian, round,
// clamp to [1, maxThreads].
func (a *Agent) Act(s env.State, e env.Environment) env.Action {
	rate, buf := e.Scales()
	return a.ActVec(s.Vector(e.MaxThreads(), rate, buf), e.MaxThreads())
}

// ActVec is Act for callers that assemble the normalized state vector
// themselves (e.g. the live-engine controller in internal/core).
func (a *Agent) ActVec(vec []float64, maxThreads int) env.Action {
	a.act.Lock()
	defer a.act.Unlock()
	return scaled(a.ppo.Sample(vec, a.rng), maxThreads)
}

// ActMean is ActVec with the distribution mean instead of a sample — the
// deterministic deployment mode. A fully annealed policy's samples
// concentrate at the mean anyway; with shorter training budgets the mean
// avoids residual exploration noise during production transfers. It is
// safe to call from several goroutines at once.
func (a *Agent) ActMean(vec []float64, maxThreads int) env.Action {
	a.act.Lock()
	defer a.act.Unlock()
	return scaled(a.ppo.Mean(vec), maxThreads)
}

// scaled turns normalized policy outputs into thread counts in
// [1, maxThreads].
func scaled(raw []float64, maxThreads int) env.Action {
	var v [env.ActionDim]float64
	for i, x := range raw {
		v[i] = x * float64(maxThreads)
	}
	return env.FromContinuous(v[:], maxThreads)
}

// collect runs one episode of M steps in e under the current policy into
// the batch, and returns its raw reward.
func (a *Agent) collect(e env.Environment, cfg TrainConfig) float64 {
	b := &a.batch
	b.Resize(cfg.StepsPerEpisode, env.StateDim, env.ActionDim)
	rate, buf := e.Scales()
	maxT := e.MaxThreads()
	rawSum := 0.0
	s := e.Reset()
	for step := 0; step < b.N; step++ {
		vec := s.Vector(maxT, rate, buf)
		copy(b.States[step*env.StateDim:], vec)
		raw := a.ppo.Sample(vec, a.rng)
		copy(b.Actions[step*env.ActionDim:], raw)
		oob := 0.0
		for _, x := range raw {
			if x < 0 {
				oob += x * x
			} else if x > 1 {
				oob += (x - 1) * (x - 1)
			}
		}
		next, r := e.Step(scaled(raw, maxT))
		shaped := r / cfg.rewardScale()
		if cfg.OOBPenalty > 0 {
			shaped -= cfg.OOBPenalty * oob
		}
		b.Returns[step] = shaped
		rawSum += r
		s = next
	}
	discount(b)
	return rawSum
}

// discount turns the batch's rewards into discounted returns
// Gt = rt + γ·G_{t+1}.
func discount(b *nn.Batch) {
	g := 0.0
	for t := b.N - 1; t >= 0; t-- {
		g = b.Returns[t] + gamma*g
		b.Returns[t] = g
	}
}

// Train runs Algorithm 2 against e and returns the learning curve. The
// agent's live networks end at the final episode; call RestoreBest to
// load the best checkpoint (as the production phase does).
func (a *Agent) Train(e env.Environment, cfg TrainConfig) *TrainResult {
	cfg = cfg.withDefaults()
	if cfg.Seed != 0 {
		a.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return train(a.ppo, &a.batch, cfg, func() float64 { return a.collect(e, cfg) }, func() {
		// One checkpoint buffer per agent, overwritten in place: a noisy
		// episode beats the best hundreds of times in a run.
		if a.best == nil {
			a.best = make([]float64, len(a.ppo.Params))
		}
		copy(a.best, a.ppo.Params)
	})
}

// train is Algorithm 2's outer loop for either agent: each episode
// collects a batch and updates p on it; improved, if set, runs on every
// new best episode. Training stops StagnantLimit episodes after the best
// episode reached convergeFrac of the episode-level maximum.
func train(p *nn.PPO, b *nn.Batch, cfg TrainConfig, collect func() float64, improved func()) *TrainResult {
	p.Adam.Reset(cfg.LR)
	res := &TrainResult{ConvergedAt: -1}
	target := convergeFrac * cfg.Rmax * float64(cfg.StepsPerEpisode)
	best := 0.0
	stagnant := 0
	for ep := 0; ep < cfg.Episodes; ep++ {
		raw := collect()
		p.Update(b, cfg.UpdateEpochs, cfg.EntropyCoef)
		res.EpisodeRewards = append(res.EpisodeRewards, raw)
		res.Episodes = ep + 1
		if raw > best {
			best = raw
			stagnant = 0
			if improved != nil {
				improved()
			}
		} else {
			stagnant++
		}
		if cfg.Rmax > 0 && best >= target {
			if res.ConvergedAt < 0 {
				res.ConvergedAt = ep
			}
			if stagnant >= cfg.StagnantLimit {
				res.Converged = true
				break
			}
		}
	}
	res.BestReward = best
	return res
}
