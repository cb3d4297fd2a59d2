package rl

import (
	"fmt"
	"io"
	"math/rand"

	"automdt/internal/env"
	"automdt/internal/nn"
	"automdt/internal/tensor"
)

// TrainConfig parameterizes Algorithm 2.
type TrainConfig struct {
	// Episodes is the maximum episode count N. The paper caps at 30000.
	Episodes int
	// StepsPerEpisode is M; the paper uses 10.
	StepsPerEpisode int
	// Gamma is the discount factor γ.
	Gamma float64
	// Clip is the PPO clipping threshold ϵ.
	Clip float64
	// LR is the Adam learning rate α.
	LR float64
	// EntropyCoef weights the entropy bonus (paper: 0.1).
	EntropyCoef float64
	// CriticCoef weights the value loss (paper: 0.5).
	CriticCoef float64
	// UpdateEpochs is the number of gradient updates per episode over the
	// collected batch. Algorithm 2 performs one.
	UpdateEpochs int
	// Rmax is the theoretical maximum *per-step* reward from the probe
	// phase; the episode-level target is StepsPerEpisode·Rmax.
	Rmax float64
	// ConvergeFrac is the fraction of the episode-level maximum that
	// counts as converged (paper: 0.9).
	ConvergeFrac float64
	// StagnantLimit is the number of non-improving episodes to wait after
	// convergence before stopping (paper: 1000).
	StagnantLimit int
	// RewardScale divides raw rewards before learning so returns are
	// O(1). If zero it defaults to Rmax (when set) or 1.
	RewardScale float64
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
	// Progress, if non-nil, receives one line every ProgressEvery
	// episodes.
	Progress      io.Writer
	ProgressEvery int
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Episodes <= 0 {
		c.Episodes = 30000
	}
	if c.StepsPerEpisode <= 0 {
		c.StepsPerEpisode = 10
	}
	if c.Gamma == 0 {
		c.Gamma = 0.99
	}
	if c.Clip == 0 {
		c.Clip = 0.2
	}
	if c.LR == 0 {
		c.LR = 3e-4
	}
	if c.EntropyCoef == 0 {
		c.EntropyCoef = 0.1
	}
	if c.CriticCoef == 0 {
		c.CriticCoef = 0.5
	}
	if c.UpdateEpochs <= 0 {
		c.UpdateEpochs = 1
	}
	if c.ConvergeFrac == 0 {
		c.ConvergeFrac = 0.9
	}
	if c.StagnantLimit <= 0 {
		c.StagnantLimit = 1000
	}
	if c.RewardScale <= 0 {
		if c.Rmax > 0 {
			c.RewardScale = c.Rmax
		} else {
			c.RewardScale = 1
		}
	}
	if c.OOBPenalty == 0 {
		c.OOBPenalty = 0.5
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 1000
	}
	return c
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

// Agent couples the policy and value networks with their optimizer state.
type Agent struct {
	Cfg    NetConfig
	Policy *GaussianPolicy
	Value  *ValueNet

	// oldPolicy holds π_θold for the PPO ratio.
	oldPolicy *GaussianPolicy
	// best holds the best checkpoint parameters (policy then value).
	best nn.ParamList
	rng  *rand.Rand
}

// NewAgent builds a PPO agent with freshly initialized networks.
func NewAgent(cfg NetConfig, seed int64) *Agent {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	a := &Agent{
		Cfg:       cfg,
		Policy:    NewGaussianPolicy(cfg, rng),
		Value:     NewValueNet(cfg, rng),
		oldPolicy: NewGaussianPolicy(cfg, rng),
		rng:       rng,
	}
	a.syncOld()
	return a
}

// allParams returns policy+value parameters, in stable order.
func (a *Agent) allParams() nn.ParamList {
	return append(nn.ParamList{}, append(a.Policy.Params(), a.Value.Params()...)...)
}

func (a *Agent) syncOld() {
	if err := nn.CopyParams(modOf(a.oldPolicy), modOf(a.Policy)); err != nil {
		panic(err)
	}
}

// modOf adapts anything with Params to nn.Module for the copy helpers.
func modOf(p interface{ Params() []*tensor.Tensor }) nn.Module {
	return nn.ParamList(p.Params())
}

// Save writes a checkpoint of the agent's current parameters.
func (a *Agent) Save(w io.Writer) error { return nn.SaveParams(w, a.allParams()) }

// Load restores a checkpoint written by Save into the agent.
func (a *Agent) Load(r io.Reader) error {
	if err := nn.LoadParams(r, a.allParams()); err != nil {
		return err
	}
	a.syncOld()
	return nil
}

// RestoreBest copies the best-seen checkpoint (tracked during Train) into
// the live networks. No-op if training has not run.
func (a *Agent) RestoreBest() {
	if a.best == nil {
		return
	}
	if err := nn.CopyParams(a.allParams(), a.best); err != nil {
		panic(err)
	}
	a.syncOld()
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
	raw := a.Policy.Sample(vec, a.rng)
	// The policy outputs normalized thread counts; rescale to [0,max].
	for i := range raw {
		raw[i] *= float64(maxThreads)
	}
	return env.FromContinuous(raw, maxThreads)
}

// ActMean is ActVec with the distribution mean instead of a sample — the
// deterministic deployment mode. A fully annealed policy's samples
// concentrate at the mean anyway; with shorter training budgets the mean
// avoids residual exploration noise during production transfers.
func (a *Agent) ActMean(vec []float64, maxThreads int) env.Action {
	mean, _ := a.Policy.MeanStd(tensor.New(append([]float64(nil), vec...), 1, len(vec)))
	raw := append([]float64(nil), mean.Data...)
	for i := range raw {
		raw[i] *= float64(maxThreads)
	}
	return env.FromContinuous(raw, maxThreads)
}

// rollout is one episode's collected experience.
type rollout struct {
	states  [][]float64
	actions [][]float64 // raw continuous samples, normalized units
	rewards []float64   // scaled
	rawSum  float64     // unscaled episode reward
}

// collect runs one episode of M steps in e under the current policy.
func (a *Agent) collect(e env.Environment, m int, scale, oobPenalty float64) rollout {
	ro := rollout{
		states:  make([][]float64, 0, m),
		actions: make([][]float64, 0, m),
		rewards: make([]float64, 0, m),
	}
	rate, buf := e.Scales()
	maxT := e.MaxThreads()
	s := e.Reset()
	for step := 0; step < m; step++ {
		vec := s.Vector(maxT, rate, buf)
		raw := a.Policy.Sample(vec, a.rng)
		scaled := make([]float64, len(raw))
		oob := 0.0
		for i := range raw {
			scaled[i] = raw[i] * float64(maxT)
			if raw[i] < 0 {
				oob += raw[i] * raw[i]
			} else if raw[i] > 1 {
				oob += (raw[i] - 1) * (raw[i] - 1)
			}
		}
		act := env.FromContinuous(scaled, maxT)
		next, r := e.Step(act)
		shaped := r / scale
		if oobPenalty > 0 {
			shaped -= oobPenalty * oob
		}
		ro.states = append(ro.states, vec)
		ro.actions = append(ro.actions, raw)
		ro.rewards = append(ro.rewards, shaped)
		ro.rawSum += r
		s = next
	}
	return ro
}

// update performs the Algorithm 2 policy/value update on one rollout.
func (a *Agent) update(ro rollout, opt *nn.Adam, cfg TrainConfig) {
	n := len(ro.states)
	states := tensor.FromRows(ro.states)
	actions := tensor.FromRows(ro.actions)

	// Discounted returns Gt = rt + γ·G_{t+1}.
	returns := make([]float64, n)
	g := 0.0
	for t := n - 1; t >= 0; t-- {
		g = ro.rewards[t] + cfg.Gamma*g
		returns[t] = g
	}
	returnsT := tensor.New(append([]float64(nil), returns...), n, 1)

	// Old-policy log-probs (no gradient).
	oldLP := a.oldPolicy.LogProb(states, actions).Clone()

	for epoch := 0; epoch < cfg.UpdateEpochs; epoch++ {
		opt.ZeroGrad()

		newLP := a.Policy.LogProb(states, actions)
		values := a.Value.Forward(states)

		// Advantages At = Gt − V(st); treated as constants for the actor.
		adv := tensor.Sub(returnsT, values.Detach().Clone())

		ratio := tensor.Exp(tensor.Sub(newLP, oldLP))
		surr1 := tensor.Mul(ratio, adv)
		surr2 := tensor.Mul(tensor.Clamp(ratio, 1-cfg.Clip, 1+cfg.Clip), adv)
		actorLoss := tensor.Neg(tensor.Mean(tensor.Min(surr1, surr2)))

		criticLoss := tensor.Scale(tensor.Mean(tensor.Square(tensor.Sub(returnsT, values))), cfg.CriticCoef)
		entropy := a.Policy.Entropy()

		loss := tensor.Sub(tensor.Add(actorLoss, criticLoss), tensor.Scale(entropy, cfg.EntropyCoef))
		loss.Backward()
		opt.Step()
	}
	a.syncOld()
}

// Train runs Algorithm 2 against e and returns the learning curve. The
// agent's live networks end at the final episode; call RestoreBest to
// load the best checkpoint (as the production phase does).
func (a *Agent) Train(e env.Environment, cfg TrainConfig) *TrainResult {
	cfg = cfg.withDefaults()
	if cfg.Seed != 0 {
		a.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	params := a.allParams()
	opt := nn.NewAdam(params, cfg.LR)
	opt.MaxNorm = 5

	res := &TrainResult{ConvergedAt: -1}
	targetEpisode := cfg.ConvergeFrac * cfg.Rmax * float64(cfg.StepsPerEpisode)
	best := 0.0
	stagnant := 0

	for ep := 0; ep < cfg.Episodes; ep++ {
		ro := a.collect(e, cfg.StepsPerEpisode, cfg.RewardScale, cfg.OOBPenalty)
		a.update(ro, opt, cfg)

		res.EpisodeRewards = append(res.EpisodeRewards, ro.rawSum)
		res.Episodes = ep + 1
		if ro.rawSum > best {
			best = ro.rawSum
			stagnant = 0
			// One checkpoint buffer per agent, overwritten in place: a noisy
			// episode beats the best hundreds of times in a run.
			if a.best == nil {
				a.best = cloneParams(params)
			} else if err := nn.CopyParams(a.best, params); err != nil {
				panic(err)
			}
		} else {
			stagnant++
		}
		if cfg.Rmax > 0 && best >= targetEpisode {
			if res.ConvergedAt < 0 {
				res.ConvergedAt = ep
			}
			if stagnant >= cfg.StagnantLimit {
				res.Converged = true
				res.Episodes = ep + 1
				break
			}
		}
		if cfg.Progress != nil && (ep+1)%cfg.ProgressEvery == 0 {
			fmt.Fprintf(cfg.Progress, "episode %d: reward %.1f (best %.1f, target %.1f)\n",
				ep+1, ro.rawSum, best, targetEpisode)
		}
	}
	res.BestReward = best
	return res
}

func cloneParams(ps nn.ParamList) nn.ParamList {
	out := make(nn.ParamList, len(ps))
	for i, p := range ps {
		out[i] = p.Clone()
	}
	return out
}
