// Package core assembles AutoMDT end to end, implementing the workflow of
// Fig. 2: explore and log the real environment (internal/probe), configure
// the offline dynamics simulator from the measured profile (internal/sim),
// train the PPO agent against it (internal/rl), and deploy the trained
// agent as an env.Controller that drives the live modular transfer engine
// (internal/transfer) in the production phase of §IV-F.
package core

import (
	"fmt"
	"io"
	"math/rand"

	"automdt/internal/env"
	"automdt/internal/probe"
	"automdt/internal/rl"
	"automdt/internal/sim"
)

// Options configures the offline training pipeline.
type Options struct {
	// K is the utility penalty base (default env.DefaultK = 1.02).
	K float64
	// MaxThreads bounds each stage's concurrency (default 32).
	MaxThreads int
	// SenderBufMb and ReceiverBufMb are the staging capacities, in
	// megabits, used to configure the training simulator (default 500).
	SenderBufMb   float64
	ReceiverBufMb float64
	// Net sizes the agent networks; zero values use the paper
	// architecture (256-wide, 3+2 residual blocks).
	Net rl.NetConfig
	// Train parameterizes Algorithm 2; zero values use paper defaults
	// (30000 episode cap, 10 steps/episode, early stop at 90% Rmax +
	// 1000 stagnant episodes). Rmax, which also scales the rewards, is
	// filled in from the probe profile automatically.
	Train rl.TrainConfig
	// Jitter roughens the training simulator's task rates (default 0.05).
	Jitter float64
	// RateDrift, when positive, degrades each stage's per-task rate by up
	// to this fraction on random training episodes (see env.SimEnv), so
	// the policy learns to re-expand concurrency under slowed conditions.
	RateDrift float64
	// Seed drives all randomness (default 1).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = env.DefaultK
	}
	if o.MaxThreads <= 0 {
		o.MaxThreads = 32
	}
	if o.SenderBufMb <= 0 {
		o.SenderBufMb = 500
	}
	if o.ReceiverBufMb <= 0 {
		o.ReceiverBufMb = 500
	}
	if o.Jitter == 0 {
		o.Jitter = 0.05
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// System is a trained AutoMDT deployment: the probed profile, the trained
// agent, and everything needed to drive a production transfer.
type System struct {
	Profile *probe.Profile
	Agent   *rl.Agent
	// TrainResult holds the offline learning curve (nil for systems
	// restored from a checkpoint).
	TrainResult *rl.TrainResult
	Opts        Options
}

// Train builds the offline training simulator from a probed profile and
// trains a PPO agent on it (the "Configure Simulator Environment" and
// "Train PPO Agent" boxes of Fig. 2).
func Train(p *probe.Profile, opts Options) (*System, error) {
	opts = opts.withDefaults()
	cfg := p.SimConfig(opts.SenderBufMb, opts.ReceiverBufMb)
	cfg.Jitter = opts.Jitter
	cfg.Rand = rand.New(rand.NewSource(opts.Seed + 101))
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: probed simulator config: %w", err)
	}
	e := env.NewSimEnv(sim.New(cfg), rand.New(rand.NewSource(opts.Seed+202)))
	e.K = opts.K
	e.MaxThreadsN = opts.MaxThreads
	e.RateDrift = opts.RateDrift

	agent := rl.NewAgent(opts.Net, opts.Seed+303)
	tc := opts.Train
	if tc.Rmax == 0 {
		tc.Rmax = p.Rmax
	}
	if tc.Seed == 0 {
		tc.Seed = opts.Seed + 404
	}
	res := agent.Train(e, tc)
	agent.RestoreBest()
	return &System{Profile: p, Agent: agent, TrainResult: res, Opts: opts}, nil
}

// ProbeAndTrain runs the full offline pipeline: exploration and logging
// against r, then simulator-based training.
func ProbeAndTrain(r probe.Runner, rng *rand.Rand, popts probe.Options, opts Options) (*System, error) {
	opts = opts.withDefaults()
	if popts.K == 0 {
		popts.K = opts.K
	}
	if popts.MaxThreads == 0 {
		popts.MaxThreads = opts.MaxThreads
	}
	p, err := probe.Explore(r, rng, popts)
	if err != nil {
		return nil, err
	}
	return Train(p, opts)
}

// SaveAgent checkpoints the trained agent.
func (s *System) SaveAgent(w io.Writer) error { return s.Agent.Save(w) }

// LoadSystem restores a System from a checkpoint plus the profile it was
// trained for. opts.Net must match the architecture used at training time.
func LoadSystem(r io.Reader, p *probe.Profile, opts Options) (*System, error) {
	opts = opts.withDefaults()
	agent := rl.NewAgent(opts.Net, opts.Seed+303)
	if err := agent.Load(r); err != nil {
		return nil, err
	}
	return &System{Profile: p, Agent: agent, Opts: opts}, nil
}

// Controller returns the production-phase controller (§IV-F): each probe
// interval it normalizes the engine state with the probed scales, samples
// the policy, rounds, clamps, and reassigns the concurrency tuple.
func (s *System) Controller() env.Controller {
	return &agentController{
		agent:      s.Agent,
		maxThreads: s.Opts.MaxThreads,
		rateScale:  s.Profile.Bottleneck,
		bufScale:   s.Opts.SenderBufMb,
	}
}

// DeterministicController is Controller with mean actions instead of
// Gaussian samples: the behaviour of a fully annealed policy, without
// residual exploration noise. Recommended for production transfers from
// short training budgets.
func (s *System) DeterministicController() env.Controller {
	return &agentController{
		agent:         s.Agent,
		maxThreads:    s.Opts.MaxThreads,
		rateScale:     s.Profile.Bottleneck,
		bufScale:      s.Opts.SenderBufMb,
		deterministic: true,
	}
}

type agentController struct {
	agent         *rl.Agent
	maxThreads    int
	rateScale     float64
	bufScale      float64
	deterministic bool
}

func (c *agentController) Name() string { return "automdt" }

func (c *agentController) Decide(st env.State) env.Action {
	vec := st.Vector(c.maxThreads, c.rateScale, c.bufScale)
	if c.deterministic {
		return c.agent.ActMean(vec, c.maxThreads)
	}
	return c.agent.ActVec(vec, c.maxThreads)
}

// FineTune continues PPO training online against e for the given number
// of episodes (the §V-C experiment; the paper found ≈1% concurrency
// improvement and excluded it from the final design).
func (s *System) FineTune(e env.Environment, episodes int) *rl.TrainResult {
	tc := s.Opts.Train
	tc.Episodes = episodes
	tc.StagnantLimit = 1 << 30 // no early stop during fine-tuning
	if tc.Rmax == 0 {
		tc.Rmax = s.Profile.Rmax
	}
	res := s.Agent.Train(e, tc)
	s.Agent.RestoreBest()
	return res
}
