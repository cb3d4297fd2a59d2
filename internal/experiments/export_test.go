package experiments

import (
	"math/rand"

	"automdt/internal/env"
	"automdt/internal/rl"
	"automdt/internal/sim"
)

// fig4Budget is Fig4 with an explicit episode budget and without the
// entropy bonus or jitter: the training TestFig4Pinned pins. The
// full-budget curves come from Fig4.
func fig4Budget(mode Mode, episodes int) (*Fig4Result, error) {
	tb := ReadBottleneck()
	net := rl.NetConfig{Hidden: 32, PolicyBlocks: 1, ValueBlocks: 1, MaxActions: tb.MaxThreads}
	if mode == Paper {
		net = rl.NetConfig{MaxActions: tb.MaxThreads}
	}
	tc := rl.TrainConfig{
		Episodes:      episodes,
		LR:            1e-3,
		UpdateEpochs:  4,
		StagnantLimit: 1 << 30,
	}
	newEnv := func(seed int64) *env.SimEnv {
		e := env.NewSimEnv(sim.New(tb.Cfg), rand.New(rand.NewSource(seed)))
		e.MaxThreadsN = tb.MaxThreads
		return e
	}
	rmax := env.TheoreticalMaxReward(tb.Bottleneck, tb.NStar, env.DefaultK)
	tc.Rmax = rmax
	cont := rl.NewAgent(net, 10)
	contRes := cont.Train(newEnv(20), tc)
	disc := rl.NewDiscreteAgent(net, 11)
	discRes := disc.Train(newEnv(30), tc)
	return &Fig4Result{Continuous: contRes, Discrete: discRes, Rmax: rmax}, nil
}
