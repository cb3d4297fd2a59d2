package rl

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"

	"automdt/internal/env"
	"automdt/internal/metrics"
	"automdt/internal/nn"
	"automdt/internal/sim"
)

// tinyNet keeps unit tests fast.
func tinyNet() NetConfig {
	return NetConfig{Hidden: 32, PolicyBlocks: 1, ValueBlocks: 1, MaxActions: 16}
}

func testEnv(seed int64) *env.SimEnv {
	s := sim.New(sim.Config{
		TPT:            [3]float64{80, 160, 200},
		Bandwidth:      [3]float64{1000, 1000, 1000},
		SenderBufCap:   500,
		ReceiverBufCap: 500,
		ChunkMb:        8,
	})
	e := env.NewSimEnv(s, rand.New(rand.NewSource(seed)))
	e.MaxThreadsN = 16
	return e
}

func TestGaussianPolicyShapes(t *testing.T) {
	p := NewAgent(tinyNet(), 1).ppo
	if p.Policy.In != env.StateDim || p.Policy.Out != env.ActionDim || p.Value.Out != 1 {
		t.Fatalf("policy %d→%d, value →%d", p.Policy.In, p.Policy.Out, p.Value.Out)
	}
	// The policy's parameters end with one log-std per action.
	if len(p.Params) != p.Policy.Size()+env.ActionDim+p.Value.Size() || len(p.Old) != p.Policy.Size()+env.ActionDim {
		t.Fatalf("%d parameters, %d in π_θold", len(p.Params), len(p.Old))
	}
	if m := p.Mean(make([]float64, env.StateDim)); len(m) != env.ActionDim {
		t.Fatalf("%d action means for %d action dimensions", len(m), env.ActionDim)
	}
}

func TestGaussianPolicySampleFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewAgent(tinyNet(), 2).ppo
	for i := 0; i < 20; i++ {
		a := p.Sample(make([]float64, env.StateDim), rng)
		if len(a) != env.ActionDim {
			t.Fatalf("sample len %d", len(a))
		}
		for _, v := range a {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite sample %v", a)
			}
		}
	}
}

func TestDiscretePolicySampleRange(t *testing.T) {
	d := NewDiscreteAgent(tinyNet(), 3)
	for i := 0; i < 50; i++ {
		a := d.sample(make([]float64, env.StateDim))
		for _, n := range a {
			if n < 1 || n > 16 {
				t.Fatalf("discrete action %v out of [1,16]", a)
			}
		}
	}
}

func TestDiscreteLogProbNegative(t *testing.T) {
	d := NewDiscreteAgent(tinyNet(), 4)
	var b nn.Batch
	b.Resize(3, env.StateDim, 0)
	for i, a := range [][env.StageCount]int{{1, 2, 3, 4}, {4, 5, 6, 7}, {16, 1, 8, 2}} {
		if b.Choices[i] = d.encode(a); d.decode(b.Choices[i]) != a {
			t.Fatalf("tuple %v does not survive its joint index", a)
		}
	}
	// An update over those joint indices takes their log-probabilities
	// under the 160 000-way head; its loss must be finite.
	if loss := d.ppo.Update(&b, 1, 0); math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("update over joint indices gave loss %v", loss)
	}
}

func TestAgentSaveLoadRoundTrip(t *testing.T) {
	a := NewAgent(tinyNet(), 5)
	b := NewAgent(tinyNet(), 6)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	state := make([]float64, env.StateDim)
	ma := append([]float64(nil), a.ppo.Mean(state)...)
	for i, v := range b.ppo.Mean(state) {
		if v != ma[i] {
			t.Fatal("loaded agent differs")
		}
	}
}

func TestActReturnsValidAction(t *testing.T) {
	a := NewAgent(tinyNet(), 7)
	e := testEnv(7)
	s := e.Reset()
	rate, buf := e.Scales()
	for i := 0; i < 10; i++ {
		act := a.ActVec(s.Vector(e.MaxThreads(), rate, buf), e.MaxThreads())
		for _, n := range act.N {
			if n < 1 || n > e.MaxThreads() {
				t.Fatalf("action %v out of range", act.N)
			}
		}
	}
}

// The central learning test: a small agent trained briefly on the
// simulator must substantially outperform a random policy.
func TestTrainImprovesOverRandomPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	e := testEnv(11)

	// Random-policy baseline: mean episode utility over 200 episodes.
	rng := rand.New(rand.NewSource(12))
	randomTotal := 0.0
	const baselineEpisodes = 200
	for ep := 0; ep < baselineEpisodes; ep++ {
		e.Reset()
		for m := 0; m < 10; m++ {
			act := env.ActionOf(1+rng.Intn(16), 1+rng.Intn(16), 1+rng.Intn(16), 1+rng.Intn(16))
			_, r := e.Step(act)
			randomTotal += r
		}
	}
	randomMean := randomTotal / baselineEpisodes

	agent := NewAgent(tinyNet(), 13)
	res := agent.Train(e, TrainConfig{
		Episodes:        1000,
		StepsPerEpisode: 10,
		LR:              1e-3,
		UpdateEpochs:    4,    // faster than the paper's single update; test budget
		Rmax:            2550, // b≈1000 × Σ k^-n* for n*=[13,7,5]
		StagnantLimit:   1e9,  // don't early-stop in this test
		Seed:            14,
	})
	if len(res.EpisodeRewards) != res.Episodes {
		t.Fatalf("reward series length %d != episodes %d", len(res.EpisodeRewards), res.Episodes)
	}
	lastMean := metrics.Summarize(res.EpisodeRewards[res.Episodes-100:]).Mean
	if lastMean < randomMean*1.1 {
		t.Fatalf("trained reward %.0f not ≥1.1× random %.0f", lastMean, randomMean)
	}
	// Learning converges fast with UpdateEpochs=4; compare against the
	// very first episodes (pre-learning policy).
	firstMean := metrics.Summarize(res.EpisodeRewards[:20]).Mean
	if lastMean <= firstMean {
		t.Fatalf("no learning: first-20 %.0f, last-100 %.0f", firstMean, lastMean)
	}
}

func TestTrainConvergenceEarlyStop(t *testing.T) {
	// A trivially rewarding environment: every episode immediately beats
	// Rmax, so training should stop after StagnantLimit stagnant episodes.
	e := testEnv(21)
	agent := NewAgent(tinyNet(), 22)
	res := agent.Train(e, TrainConfig{
		Episodes:        500,
		StepsPerEpisode: 5,
		Rmax:            1, // absurdly low target → immediate convergence
		StagnantLimit:   20,
		Seed:            23,
	})
	if !res.Converged {
		t.Fatal("expected convergence with trivial Rmax")
	}
	if res.Episodes >= 500 {
		t.Fatal("early stop did not trigger")
	}
	if res.ConvergedAt < 0 {
		t.Fatal("ConvergedAt not set")
	}
}

func TestRestoreBest(t *testing.T) {
	e := testEnv(31)
	agent := NewAgent(tinyNet(), 32)
	agent.Train(e, TrainConfig{Episodes: 30, StepsPerEpisode: 5, Rmax: 2700, StagnantLimit: 1e9, Seed: 33})
	if agent.best == nil {
		t.Fatal("no best checkpoint recorded")
	}
	// Corrupt the live policy, restore, and check it matches best.
	for i := range agent.ppo.Old {
		agent.ppo.Params[i] = 99
	}
	agent.RestoreBest()
	for i, v := range agent.ppo.Params {
		if v != agent.best[i] {
			t.Fatal("RestoreBest did not restore parameters")
		}
	}
	for i, v := range agent.ppo.Old {
		if v != agent.best[i] {
			t.Fatal("RestoreBest did not reset π_θold")
		}
	}
}

func TestDiscreteAgentTrainsWithoutCrashing(t *testing.T) {
	e := testEnv(41)
	agent := NewDiscreteAgent(tinyNet(), 42)
	res := agent.Train(e, TrainConfig{Episodes: 20, StepsPerEpisode: 5, Rmax: 2700, StagnantLimit: 1e9, Seed: 43})
	if res.Episodes != 20 {
		t.Fatalf("episodes %d", res.Episodes)
	}
	for _, r := range res.EpisodeRewards {
		if math.IsNaN(r) {
			t.Fatal("NaN episode reward")
		}
	}
}

func TestActMeanIsDeterministic(t *testing.T) {
	a := NewAgent(tinyNet(), 51)
	vec := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	first := a.ActMean(vec, 16)
	for i := 0; i < 5; i++ {
		if got := a.ActMean(vec, 16); got != first {
			t.Fatalf("ActMean varied: %v vs %v", got, first)
		}
	}
	for _, n := range first.N {
		if n < 1 || n > 16 {
			t.Fatalf("ActMean out of range: %v", first.N)
		}
	}
}

// One deployed agent drives every concurrent job: simultaneous ActMean
// calls each get the answer a lone call gets.
func TestActMeanConcurrent(t *testing.T) {
	a := NewAgent(tinyNet(), 53)
	rng := rand.New(rand.NewSource(53))
	vecs := make([][]float64, 16)
	want := make([]env.Action, len(vecs))
	for i := range vecs {
		vecs[i] = make([]float64, env.StateDim)
		for j := range vecs[i] {
			vecs[i][j] = rng.Float64()
		}
		want[i] = a.ActMean(vecs[i], 64)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for r := 0; r < 2000; r++ {
				i := (g + r) % len(vecs)
				if got := a.ActMean(vecs[i], 64); got != want[i] {
					errs <- fmt.Errorf("goroutine %d: ActMean(vec %d) = %v, alone %v", g, i, got, want[i])
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestActVecSamplesVary(t *testing.T) {
	a := NewAgent(tinyNet(), 52)
	vec := make([]float64, env.StateDim)
	seen := map[env.Action]bool{}
	for i := 0; i < 50; i++ {
		seen[a.ActVec(vec, 16)] = true
	}
	if len(seen) < 2 {
		t.Fatal("sampled actions never varied; exploration broken")
	}
}

func TestOOBPenaltyDefaultAndDisable(t *testing.T) {
	c := TrainConfig{}.withDefaults()
	if c.OOBPenalty != 0.5 {
		t.Fatalf("OOBPenalty default %v", c.OOBPenalty)
	}
	c2 := TrainConfig{OOBPenalty: -1}.withDefaults()
	if c2.OOBPenalty != -1 {
		t.Fatalf("OOBPenalty disable overridden: %v", c2.OOBPenalty)
	}
}

func TestTrainConfigDefaults(t *testing.T) {
	c := TrainConfig{}.withDefaults()
	if c.Episodes != 30000 || c.StepsPerEpisode != 10 || c.EntropyCoef != 0.1 || c.StagnantLimit != 1000 {
		t.Fatalf("defaults: %+v", c)
	}
	if gamma != 0.99 || nn.Clip != 0.2 || nn.CriticCoef != 0.5 || convergeFrac != 0.9 {
		t.Fatalf("γ=%v ϵ=%v critic=%v converge=%v", gamma, nn.Clip, nn.CriticCoef, convergeFrac)
	}
	if s := (TrainConfig{Rmax: 50}).rewardScale(); s != 50 {
		t.Fatalf("reward scale should track Rmax, got %v", s)
	}
	if s := c.rewardScale(); s != 1 {
		t.Fatalf("reward scale without Rmax %v", s)
	}
}

func TestNetConfigDefaultsMatchPaper(t *testing.T) {
	c := NetConfig{}.withDefaults()
	if c.Hidden != 256 || c.PolicyBlocks != 3 || c.ValueBlocks != 2 || c.MaxActions != 32 {
		t.Fatalf("paper architecture defaults wrong: %+v", c)
	}
	if nn.InitLogStd != math.Log(0.3) {
		t.Fatalf("initial log-std %v, want log 0.3", nn.InitLogStd)
	}
	p := NewAgent(NetConfig{}, 1).ppo
	if p.Policy.Hidden != 256 || p.Policy.Blocks != 3 || p.Value.Blocks != 2 {
		t.Fatalf("agent networks: hidden %d, blocks %d/%d", p.Policy.Hidden, p.Policy.Blocks, p.Value.Blocks)
	}
	for _, ls := range p.Params[p.Policy.Size():len(p.Old)] {
		if ls != nn.InitLogStd {
			t.Fatalf("initial log-std %v", ls)
		}
	}
}

// A checkpoint written by the tape-based agent (Hidden 8, one block per
// trunk, five training episodes) still loads: the same tensors in the same
// order, giving the same deployed actions and the same raw means, bit for
// bit.
func TestTapeEraCheckpointLoads(t *testing.T) {
	f, err := os.Open("testdata/agent_h8.gob")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a := NewAgent(NetConfig{Hidden: 8, PolicyBlocks: 1, ValueBlocks: 1}, 1)
	if err := a.Load(f); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		vec   []float64
		act   [env.StageCount]int
		means [env.ActionDim]uint64
	}{
		{[]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}, [4]int{16, 1, 1, 1},
			[4]uint64{0x400093ce2fdc29be, 0xbff2ecaee57063f7, 0xbf65a2edf728e6e8, 0x3fb43b076440829e}},
		{make([]float64, env.StateDim), [4]int{1, 1, 6, 1},
			[4]uint64{0xbfe08fb9b8b51262, 0x3f56bcd2fcaa43d8, 0x3fd69dd2200ca3b8, 0xbfdd5b106770cea9}},
		{[]float64{1.5, -0.25, 0.75, 0.05, 0.33, 0.9, 0.12, 0.6, 0.4, 0.2}, [4]int{16, 1, 16, 1},
			[4]uint64{0x3ff384ce2b125f6b, 0xbfe0ea8abd71e9a8, 0x3ffa495c13e01a02, 0xbfe00b00ad35ed0e}},
	} {
		if got := a.ActMean(c.vec, 16); got.N != c.act {
			t.Fatalf("ActMean(%v) = %v, tape-era agent chose %v", c.vec, got.N, c.act)
		}
		for j, m := range a.ppo.Mean(c.vec) {
			if math.Float64bits(m) != c.means[j] {
				t.Fatalf("mean[%d] of %v = %#x, tape-era agent had %#x", j, c.vec, math.Float64bits(m), c.means[j])
			}
		}
	}
}

// A warmed-up update and a deployed decision allocate nothing.
func TestUpdateAndActMeanAllocateNothing(t *testing.T) {
	a := NewAgent(tinyNet(), 61)
	e := testEnv(61)
	cfg := TrainConfig{StepsPerEpisode: 10, UpdateEpochs: 2}.withDefaults()
	a.collect(e, cfg)
	update := func() { a.ppo.Update(&a.batch, cfg.UpdateEpochs, cfg.EntropyCoef) }
	update()
	if n := testing.AllocsPerRun(20, update); n != 0 {
		t.Fatalf("update allocates %v times", n)
	}
	vec := make([]float64, env.StateDim)
	if n := testing.AllocsPerRun(20, func() { a.ActMean(vec, 16) }); n != 0 {
		t.Fatalf("ActMean allocates %v times", n)
	}
	d := NewDiscreteAgent(NetConfig{Hidden: 8, PolicyBlocks: 1, ValueBlocks: 1, MaxActions: 4}, 62)
	d.collect(e, cfg)
	if n := testing.AllocsPerRun(5, func() { d.ppo.Update(&d.batch, 1, cfg.EntropyCoef) }); n != 0 {
		t.Fatalf("discrete update allocates %v times", n)
	}
}
