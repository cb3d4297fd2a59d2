package automdt

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus a raw loopback goodput benchmark and the simulator and
// PPO inner loops. Each figure benchmark runs the corresponding
// experiment (training is memoized per process, so the first iteration
// pays it once) and reports the headline metrics the paper's figure
// conveys via b.ReportMetric. The printable artifacts come from
// `go run automdt/cmd/automdt-bench`. The engine itself is measured by
// the repo benchmark in benchmark/.
//
// Set AUTOMDT_MODE=paper for full-fidelity runs (the paper's 256-wide
// networks and 30000-episode budget; expect ~45 minutes of training per
// testbed).

import (
	"context"
	"math/rand"
	"os"
	"testing"
	"time"

	"automdt/internal/env"
	"automdt/internal/experiments"
	"automdt/internal/metrics"
	"automdt/internal/rl"
	"automdt/internal/sim"
)

func benchMode() experiments.Mode {
	if os.Getenv("AUTOMDT_MODE") == "paper" {
		return experiments.Paper
	}
	return experiments.Quick
}

// reportCompare attaches the figure's headline numbers to the benchmark.
func reportCompare(b *testing.B, r *experiments.CompareResult) {
	b.Helper()
	b.ReportMetric(float64(r.Auto.Run.Ticks), "autoTCT_s")
	b.ReportMetric(float64(r.Marlin.Run.Ticks), "marlinTCT_s")
	b.ReportMetric(r.Auto.Run.AvgMbps, "autoMbps")
	b.ReportMetric(r.Marlin.Run.AvgMbps, "marlinMbps")
	b.ReportMetric(r.Auto.TimeToTarget, "autoReach_s")
	b.ReportMetric(r.Marlin.TimeToTarget, "marlinReach_s")
}

// BenchmarkFig3 regenerates Fig. 3: AutoMDT vs Marlin on the WAN
// (NCSA→TACC-like) testbed, 100×1 GB.
func BenchmarkFig3(b *testing.B) {
	var last *experiments.CompareResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(benchMode())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	reportCompare(b, last)
}

// BenchmarkFig4 trains the Fig. 4 ablation's continuous and discrete
// agents for 120 episodes each on the read-bottleneck testbed (the full
// curves come from automdt-bench -exp fig4).
func BenchmarkFig4(b *testing.B) {
	tb := experiments.ReadBottleneck()
	net := rl.NetConfig{Hidden: 32, PolicyBlocks: 1, ValueBlocks: 1, MaxActions: tb.MaxThreads}
	if benchMode() == experiments.Paper {
		net = rl.NetConfig{MaxActions: tb.MaxThreads}
	}
	tc := rl.TrainConfig{Episodes: 120, LR: 1e-3, UpdateEpochs: 4, StagnantLimit: 1 << 30,
		Rmax: env.TheoreticalMaxReward(tb.Bottleneck, tb.NStar, env.DefaultK)}
	newEnv := func(seed int64) *env.SimEnv {
		e := env.NewSimEnv(sim.New(tb.Cfg), rand.New(rand.NewSource(seed)))
		e.MaxThreadsN = tb.MaxThreads
		return e
	}
	lastQuarter := func(r []float64) float64 { return metrics.Summarize(r[len(r)-len(r)/4:]).Mean }
	var contLast, discLast float64
	for i := 0; i < b.N; i++ {
		contLast = lastQuarter(rl.NewAgent(net, 10).Train(newEnv(20), tc).EpisodeRewards)
		discLast = lastQuarter(rl.NewDiscreteAgent(net, 11).Train(newEnv(30), tc).EpisodeRewards)
	}
	b.ReportMetric(contLast, "contReward")
	b.ReportMetric(discLast, "discReward")
}

// BenchmarkFig5Read regenerates the read-bottleneck column of Fig. 5
// (caps 80/160/200 Mbps, optimum ⟨13,7,5⟩).
func BenchmarkFig5Read(b *testing.B) {
	var last *experiments.CompareResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5Read(benchMode())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	reportCompare(b, last)
}

// BenchmarkFig5Network regenerates the network-bottleneck column of
// Fig. 5 (caps 205/75/195 Mbps, optimum ⟨5,14,5⟩).
func BenchmarkFig5Network(b *testing.B) {
	var last *experiments.CompareResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5Network(benchMode())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	reportCompare(b, last)
}

// BenchmarkFig5Write regenerates the write-bottleneck column of Fig. 5
// (caps 200/150/70 Mbps, optimum ⟨5,7,15⟩).
func BenchmarkFig5Write(b *testing.B) {
	var last *experiments.CompareResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5Write(benchMode())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	reportCompare(b, last)
}

// BenchmarkTable1 regenerates Table I: Globus vs Marlin vs AutoMDT on
// large and mixed datasets over the WAN testbed.
func BenchmarkTable1(b *testing.B) {
	var last *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(benchMode())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Rows[0].GlobusMbps, "largeGlobus")
	b.ReportMetric(last.Rows[0].MarlinMbps, "largeMarlin")
	b.ReportMetric(last.Rows[0].AutoMbps, "largeAuto")
	b.ReportMetric(last.Rows[1].GlobusMbps, "mixedGlobus")
	b.ReportMetric(last.Rows[1].MarlinMbps, "mixedMarlin")
	b.ReportMetric(last.Rows[1].AutoMbps, "mixedAuto")
}

// BenchmarkOfflineTraining measures the §V-A offline training pipeline
// (probe → fit simulator → PPO) in episodes per second.
func BenchmarkOfflineTraining(b *testing.B) {
	tb := experiments.ReadBottleneck()
	const episodes = 100
	for i := 0; i < b.N; i++ {
		_, err := experiments.TrainBudget(tb, benchMode(), int64(1000+i), episodes)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(episodes)*float64(b.N)/b.Elapsed().Seconds(), "episodes/s")
}

// BenchmarkFineTune measures the §V-C online fine-tuning loop.
func BenchmarkFineTune(b *testing.B) {
	var last *experiments.FineTuneResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.FineTune(benchMode(), 20)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.BaseMeanThreads, "baseThreads")
	b.ReportMetric(last.TunedMeanThreads, "tunedThreads")
}

// BenchmarkAblationJoint regenerates the §III optimizer-architecture
// ablation (joint gradient descent vs Marlin vs the RL agent).
func BenchmarkAblationJoint(b *testing.B) {
	var last *experiments.AblationJointResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationJoint(benchMode())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.AutoMbps, "autoMbps")
	b.ReportMetric(last.MarlinMbps, "marlinMbps")
	b.ReportMetric(last.JointMbps, "jointMbps")
}

// BenchmarkAblationK regenerates the §IV-B utility-penalty sweep.
func BenchmarkAblationK(b *testing.B) {
	var rows []experiments.KSweepRow
	for i := 0; i < b.N; i++ {
		rows = experiments.KSweep([]float64{1.001, 1.01, 1.02, 1.05, 1.2})
	}
	for _, r := range rows {
		if r.K == 1.02 {
			b.ReportMetric(float64(r.TotalThreads), "threads@k1.02")
			b.ReportMetric(r.Mbps, "mbps@k1.02")
		}
	}
}

// BenchmarkLoopbackEngine measures raw engine goodput over loopback TCP
// with no rate shaping (GC and syscall overhead are the ceiling here).
func BenchmarkLoopbackEngine(b *testing.B) {
	cfg := TransferConfig{
		ChunkBytes:     256 << 10,
		MaxThreads:     16,
		InitialThreads: 8,
		ProbeInterval:  100 * time.Millisecond,
	}
	m := LargeFiles(16, 4<<20) // 64 MB
	b.SetBytes(m.TotalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := NewSyntheticStore(), NewSyntheticStore()
		res, err := LoopbackTransfer(context.Background(), cfg, m, src, dst, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.AvgMbps, "goodputMbps")
		}
	}
}

// BenchmarkSimulatorStep measures the Algorithm 1 event loop at the
// paper's read-bottleneck operating point.
func BenchmarkSimulatorStep(b *testing.B) {
	s := sim.New(experiments.ReadBottleneck().Cfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Step(13, 1, 7, 5)
	}
}

// BenchmarkPPOUpdate measures one Algorithm 2 episode (collect + update)
// against the simulator environment with the paper's full-size networks.
func BenchmarkPPOUpdate(b *testing.B) {
	tb := experiments.ReadBottleneck()
	agent, e := experiments.NewBenchAgent(tb, rl.NetConfig{}) // paper architecture
	cfg := rl.TrainConfig{Episodes: 1, StepsPerEpisode: 10, StagnantLimit: 1 << 30}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Train(e, cfg)
	}
}
