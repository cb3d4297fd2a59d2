package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"automdt/internal/core"
	"automdt/internal/env"
	"automdt/internal/marlin"
	"automdt/internal/metrics"
	"automdt/internal/probe"
	"automdt/internal/rl"
	"automdt/internal/sim"
	"automdt/internal/static"
)

// TraceResult pairs a named optimizer with its simulated-transfer traces.
type TraceResult struct {
	Name string
	Run  *core.SimTransferResult
	// TimeToTarget is the first simulated second at which the named
	// stage's concurrency reached the scenario target, or -1.
	TimeToTarget float64
}

// CompareResult is one head-to-head figure experiment (Fig. 3 or one
// Fig. 5 column).
type CompareResult struct {
	Testbed Testbed
	// TargetStage indexes the bottleneck stage whose concurrency
	// convergence the paper reports (0=read, 1=network, 2=write).
	TargetStage sim.Stage
	// Target is the optimal concurrency of the bottleneck stage.
	Target int
	Auto   TraceResult
	Marlin TraceResult
}

// runCompare trains AutoMDT on tb and races it against Marlin on a
// dataset of totalMb.
func runCompare(tb Testbed, mode Mode, seed int64, totalMb float64, target sim.Stage) (*CompareResult, error) {
	sys, err := TrainedSystem(tb, mode, seed)
	if err != nil {
		return nil, err
	}
	targetN := tb.TargetN(target)
	run := func(name string, ctrl env.Controller) TraceResult {
		st := &core.SimTransfer{
			Cfg:        tb.Cfg,
			Controller: ctrl,
			TotalMb:    totalMb,
			MaxTicks:   3600,
			MaxThreads: tb.MaxThreads,
		}
		r := st.Run()
		series := map[sim.Stage]string{
			sim.Read: "cc_read", sim.Network: "cc_net", sim.Write: "cc_write",
		}[target]
		return TraceResult{
			Name:         name,
			Run:          r,
			TimeToTarget: r.Rec.Series(series).TimeToReach(float64(targetN)),
		}
	}
	res := &CompareResult{
		Testbed:     tb,
		TargetStage: target,
		Target:      targetN,
		Auto:        run("AutoMDT", sys.DeterministicController()),
		Marlin:      run("Marlin", paperMarlin()),
	}
	return res, nil
}

// Fig3 reproduces the NCSA→TACC comparison of Fig. 3: 100×1 GB
// (= 800,000 Mb) on the WAN testbed, AutoMDT vs Marlin concurrency and
// throughput traces plus transfer completion times.
func Fig3(mode Mode) (*CompareResult, error) {
	return runCompare(Wan(), mode, 1, 800_000, sim.Network)
}

// Fig5Read, Fig5Network, and Fig5Write reproduce the three bottleneck
// columns of Fig. 5 (4 GB datasets keep simulated durations near the
// paper's 100–250 s horizons).
func Fig5Read(mode Mode) (*CompareResult, error) {
	return runCompare(ReadBottleneck(), mode, 2, 32_000, sim.Read)
}

// Fig5Network is the network-bottleneck column of Fig. 5.
func Fig5Network(mode Mode) (*CompareResult, error) {
	return runCompare(NetworkBottleneck(), mode, 3, 32_000, sim.Network)
}

// Fig5Write is the write-bottleneck column of Fig. 5.
func Fig5Write(mode Mode) (*CompareResult, error) {
	return runCompare(WriteBottleneck(), mode, 4, 32_000, sim.Write)
}

// Fig4Result holds the two training curves of Fig. 4.
type Fig4Result struct {
	Continuous *rl.TrainResult
	Discrete   *rl.TrainResult
	// Rmax is the per-episode theoretical maximum reward.
	Rmax float64
}

// Fig4 reproduces the action-space ablation: PPO with a continuous
// Gaussian action space converges; the discrete variant does not.
func Fig4(mode Mode) (*Fig4Result, error) {
	tb := ReadBottleneck()
	net := rl.NetConfig{Hidden: 32, PolicyBlocks: 1, ValueBlocks: 1, MaxActions: tb.MaxThreads}
	tc := rl.TrainConfig{
		Episodes:      1500,
		LR:            1e-3,
		UpdateEpochs:  4,
		StagnantLimit: 1 << 30,
		EntropyCoef:   0.1, // the paper's entropy bonus
	}
	if mode == Paper {
		net = rl.NetConfig{MaxActions: tb.MaxThreads}
		tc = rl.TrainConfig{Episodes: 30000}
	}

	newEnv := func(seed int64) *env.SimEnv {
		cfg := tb.Cfg
		cfg.Jitter = 0.05
		cfg.Rand = rand.New(rand.NewSource(seed))
		e := env.NewSimEnv(sim.New(cfg), rand.New(rand.NewSource(seed+1)))
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

// TrainBudget runs the offline pipeline on tb with a fixed episode
// budget (no caching), for timing the §V-A training cost.
func TrainBudget(tb Testbed, mode Mode, seed int64, episodes int) (*core.System, error) {
	opts := trainOpts(tb, mode, seed)
	opts.Train.Episodes = episodes
	opts.Train.StagnantLimit = 1 << 30
	return core.ProbeAndTrain(
		probeRunnerFor(tb),
		rand.New(rand.NewSource(seed)),
		probe.Options{Steps: 100, MaxThreads: tb.MaxThreads},
		opts,
	)
}

// NewBenchAgent builds a PPO agent with the given architecture plus a
// matching simulator environment, for micro-benchmarks.
func NewBenchAgent(tb Testbed, net rl.NetConfig) (*rl.Agent, env.Environment) {
	e := env.NewSimEnv(sim.New(tb.Cfg), rand.New(rand.NewSource(7)))
	e.MaxThreadsN = tb.MaxThreads
	return rl.NewAgent(net, 8), e
}

// Table1Row is one dataset row of Table I.
type Table1Row struct {
	Dataset     string
	GlobusMbps  float64
	MarlinMbps  float64
	AutoMbps    float64
	PaperGlobus float64
	PaperMarlin float64
	PaperAuto   float64
}

// Table1Result holds both rows of Table I.
type Table1Result struct {
	Rows []Table1Row
}

// mixedPenalty models the per-file overhead (open/close, sub-chunk tails)
// that separates the paper's mixed dataset from its large dataset: the
// paper's measured mixed/large ratios are 0.64 (Globus), 0.76 (Marlin),
// and 0.71 (AutoMDT); we apply a single 0.72 factor to per-thread rates.
const mixedPenalty = 0.72

// Table1 reproduces the end-to-end comparison: Globus (static monolithic
// concurrency 4), Marlin, and AutoMDT on large (Dataset A) and mixed
// (Dataset B) 1 TB workloads over the WAN testbed. Dataset volume is
// scaled to totalMb to keep runtimes sane; throughput is volume/time, so
// the comparison is scale-free once past convergence transients.
func Table1(mode Mode) (*Table1Result, error) {
	tb := Wan()
	sys, err := TrainedSystem(tb, mode, 1)
	if err != nil {
		return nil, err
	}
	const totalMb = 1_600_000 // 200 GB-equivalent; long enough to amortize ramp-up

	measure := func(cfg sim.Config, ctrl env.Controller) float64 {
		st := &core.SimTransfer{
			Cfg:        cfg,
			Controller: ctrl,
			TotalMb:    totalMb,
			MaxTicks:   7200,
			MaxThreads: tb.MaxThreads,
		}
		return st.Run().AvgMbps
	}
	// Per-file overhead shaves both per-thread rates and the achievable
	// aggregate goodput (headers, open/close, sub-chunk tails).
	mixedCfg := tb.Cfg
	for i := range mixedCfg.TPT {
		mixedCfg.TPT[i] *= mixedPenalty
		mixedCfg.Bandwidth[i] *= mixedPenalty
	}

	res := &Table1Result{}
	res.Rows = append(res.Rows, Table1Row{
		Dataset:     "A (Large)",
		GlobusMbps:  measure(tb.Cfg, static.New(4)),
		MarlinMbps:  measure(tb.Cfg, paperMarlin()),
		AutoMbps:    measure(tb.Cfg, sys.DeterministicController()),
		PaperGlobus: 3652.2, PaperMarlin: 18066.8, PaperAuto: 23988.0,
	})
	res.Rows = append(res.Rows, Table1Row{
		Dataset:     "B (Mixed)",
		GlobusMbps:  measure(mixedCfg, static.New(4)),
		MarlinMbps:  measure(mixedCfg, paperMarlin()),
		AutoMbps:    measure(mixedCfg, sys.DeterministicController()),
		PaperGlobus: 2325.9, PaperMarlin: 13721.5, PaperAuto: 16915.8,
	})
	return res, nil
}

// FineTuneResult reports the §V-C online fine-tuning experiment.
type FineTuneResult struct {
	// BaseMeanThreads and TunedMeanThreads are the average total
	// concurrency (n_r+n_n+n_w) used at steady state.
	BaseMeanThreads  float64
	TunedMeanThreads float64
	// BaseMbps and TunedMbps are the steady-state transfer rates.
	BaseMbps  float64
	TunedMbps float64
}

// FineTune reproduces §V-C: take the offline-trained model, fine-tune it
// online (against the ground-truth dynamics), and compare concurrency
// usage at equal speed. The paper measured ≈1% fewer threads and declared
// the gain negligible.
func FineTune(mode Mode, episodes int) (*FineTuneResult, error) {
	tb := ReadBottleneck()
	sys, err := TrainedSystem(tb, mode, 5)
	if err != nil {
		return nil, err
	}
	eval := func(ctrl env.Controller) (meanThreads, mbps float64) {
		st := &core.SimTransfer{
			Cfg:        tb.Cfg,
			Controller: ctrl,
			TotalMb:    24_000,
			MaxTicks:   3600,
			MaxThreads: tb.MaxThreads,
		}
		r := st.Run()
		var tot []float64
		cr := r.Rec.Series("cc_read").Values()
		cn := r.Rec.Series("cc_net").Values()
		cw := r.Rec.Series("cc_write").Values()
		for i := range cr {
			tot = append(tot, cr[i]+cn[i]+cw[i])
		}
		// Skip the convergence transient (first quarter).
		tail := tot[len(tot)/4:]
		return metrics.Summarize(tail).Mean, r.AvgMbps
	}
	res := &FineTuneResult{}
	res.BaseMeanThreads, res.BaseMbps = eval(sys.DeterministicController())

	e := env.NewSimEnv(sim.New(tb.Cfg), rand.New(rand.NewSource(99)))
	e.MaxThreadsN = tb.MaxThreads
	sys.FineTune(e, episodes)
	res.TunedMeanThreads, res.TunedMbps = eval(sys.DeterministicController())
	return res, nil
}

// AblationJointResult compares the three optimizer architectures of the
// §III motivation on the same testbed.
type AblationJointResult struct {
	Testbed Testbed
	// Mbps maps optimizer name to achieved end-to-end rate.
	AutoMbps   float64
	MarlinMbps float64
	JointMbps  float64
	// JointStuck reports whether joint gradient descent plateaued well
	// below the RL optimum (the paper's "never recovers" failure).
	JointStuck bool
}

// AblationJoint reproduces the §III failure analysis on the WAN testbed
// (where the optimum needs 20 network streams): joint multivariate
// gradient descent freezes in its early read-favoring local optimum,
// Marlin's independent optimizers limp along unstably, and the RL agent
// converges.
func AblationJoint(mode Mode) (*AblationJointResult, error) {
	tb := Wan()
	sys, err := TrainedSystem(tb, mode, 1)
	if err != nil {
		return nil, err
	}
	run := func(ctrl env.Controller) float64 {
		st := &core.SimTransfer{
			Cfg:        tb.Cfg,
			Controller: ctrl,
			TotalMb:    800_000,
			MaxTicks:   3600,
			MaxThreads: tb.MaxThreads,
		}
		return st.Run().AvgMbps
	}
	res := &AblationJointResult{
		Testbed:    tb,
		AutoMbps:   run(sys.DeterministicController()),
		MarlinMbps: run(paperMarlin()),
		JointMbps:  run(marlin.NewJointGD()),
	}
	res.JointStuck = res.JointMbps < 0.9*res.AutoMbps
	return res, nil
}

// KSweepRow is one line of the §IV-B utility-penalty sweep.
type KSweepRow struct {
	K float64
	// BestThreads is the utility-maximizing stage tuple.
	BestThreads env.Action
	// TotalThreads is the paper's resource count n_r + n_n + n_w, with
	// n_n the total network workers (conns·streams).
	TotalThreads int
	Mbps         float64
}

// KSweep reproduces the paper's k selection (§IV-B): for each penalty
// base, find the utility-maximizing concurrency tuple on the simulator
// and report the resource/throughput trade-off. Small k buys marginal
// throughput with many extra threads; large k sacrifices throughput;
// k≈1.02 sits at the knee.
//
// Single-coordinate hill climbing stalls on this objective (the §III
// local optimum: no stage improves alone), so the search walks the
// balanced-pipeline frontier — tuples nᵢ = ⌈T/TPTᵢ⌉ for target rates T up
// to the bottleneck — plus each tuple's single-stage neighbours.
func KSweep(ks []float64) []KSweepRow {
	tb := ReadBottleneck()

	// Build the candidate set once: balanced-pipeline tuples at one data
	// connection (this testbed has no per-connection ceiling, so extra
	// sockets only cost utility) plus single-dimension neighbours.
	var candidates []env.Action
	seen := map[env.Action]bool{}
	add := func(c env.Action) {
		c = c.Clamp(tb.MaxThreads)
		if !seen[c] {
			seen[c] = true
			candidates = append(candidates, c)
		}
	}
	for T := 40.0; T <= tb.Bottleneck+1; T += 40 {
		c := env.ActionOf(
			int(math.Ceil(T/tb.Cfg.TPT[0])),
			1,
			int(math.Ceil(T/tb.Cfg.TPT[1])),
			int(math.Ceil(T/tb.Cfg.TPT[2])),
		)
		add(c)
		for i := env.Stage(0); i < env.StageCount; i++ {
			for _, d := range []int{-1, +1} {
				n := c
				n.N[i] += d
				add(n)
			}
		}
	}
	rates := make([]env.StageVec, len(candidates)) // steady-state throughputs
	for i, c := range candidates {
		rates[i] = evalThroughputs(tb, c)
	}

	rows := make([]KSweepRow, 0, len(ks))
	for _, k := range ks {
		bestI, bestU := 0, math.Inf(-1)
		for i, c := range candidates {
			if u := env.Utility(rates[i], c, k); u > bestU {
				bestI, bestU = i, u
			}
		}
		best := candidates[bestI]
		rows = append(rows, KSweepRow{
			K:            k,
			BestThreads:  best,
			TotalThreads: best.N[env.StageRead] + best.NetWorkers() + best.N[env.StageWrite],
			Mbps:         rates[bestI][env.StageWrite],
		})
	}
	return rows
}

// evalThroughputs returns the steady-state stage rates at the tuple.
func evalThroughputs(tb Testbed, a env.Action) env.StageVec {
	s := sim.New(tb.Cfg)
	var r sim.Result
	for i := 0; i < 10; i++ {
		r = s.Step(a.N[env.StageRead], a.N[env.StageConns], a.N[env.StageStreams], a.N[env.StageWrite])
	}
	return env.ThroughputVec(r.Throughput[sim.Read], r.Throughput[sim.Network], r.Throughput[sim.Write])
}

// PrintCompare renders a CompareResult as the text analogue of a figure
// column: convergence times, completion times, and the concurrency trace.
func PrintCompare(w io.Writer, c *CompareResult) {
	fmt.Fprintf(w, "== %s (target: %s concurrency %d) ==\n",
		c.Testbed.Name, c.TargetStage, c.Target)
	for _, t := range []TraceResult{c.Auto, c.Marlin} {
		fmt.Fprintf(w, "%-8s  TCT %4d s   avg %7.0f Mbps   reach n*=%d at t=%s\n",
			t.Name, t.Run.Ticks, t.Run.AvgMbps, c.Target, fmtTime(t.TimeToTarget))
	}
	speedup := float64(c.Marlin.Run.Ticks) / math.Max(1, float64(c.Auto.Run.Ticks))
	fmt.Fprintf(w, "Marlin/AutoMDT completion-time ratio: %.2fx\n", speedup)
	fmt.Fprintln(w, "\nAutoMDT concurrency trace (t, n_r, n_n, n_w) every 10 s:")
	printTrace(w, c.Auto)
	fmt.Fprintln(w, "Marlin concurrency trace (t, n_r, n_n, n_w) every 10 s:")
	printTrace(w, c.Marlin)
}

func printTrace(w io.Writer, t TraceResult) {
	cr := t.Run.Rec.Series("cc_read").Points()
	cn := t.Run.Rec.Series("cc_net").Points()
	cw := t.Run.Rec.Series("cc_write").Points()
	for i := 0; i < len(cr); i += 10 {
		fmt.Fprintf(w, "  t=%4.0f  %2.0f %2.0f %2.0f\n", cr[i].T, cr[i].V, cn[i].V, cw[i].V)
	}
}

func fmtTime(t float64) string {
	if t < 0 {
		return "never"
	}
	return fmt.Sprintf("%.0fs", t)
}

// PrintTable1 renders Table I with the paper's reference numbers.
func PrintTable1(w io.Writer, t *Table1Result) {
	fmt.Fprintln(w, "== Table I: end-to-end transfer speed (Mbps) ==")
	fmt.Fprintf(w, "%-10s  %22s  %22s  %22s\n", "Dataset", "Globus (meas/paper)", "Marlin (meas/paper)", "AutoMDT (meas/paper)")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-10s  %10.0f /%9.1f  %10.0f /%9.1f  %10.0f /%9.1f\n",
			r.Dataset, r.GlobusMbps, r.PaperGlobus, r.MarlinMbps, r.PaperMarlin, r.AutoMbps, r.PaperAuto)
	}
}

// PrintFig4 renders the two learning curves as block means.
func PrintFig4(w io.Writer, f *Fig4Result) {
	fmt.Fprintln(w, "== Fig. 4: PPO reward by action space (block means) ==")
	blocks := func(rs []float64) []float64 {
		n := 10
		if len(rs) < n {
			n = len(rs)
		}
		out := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			lo, hi := i*len(rs)/n, (i+1)*len(rs)/n
			out = append(out, metrics.Summarize(rs[lo:hi]).Mean)
		}
		return out
	}
	fmt.Fprintf(w, "episode-max reward (10·Rmax): %.0f\n", 10*f.Rmax)
	fmt.Fprintf(w, "continuous: ")
	for _, v := range blocks(f.Continuous.EpisodeRewards) {
		fmt.Fprintf(w, "%7.0f", v)
	}
	fmt.Fprintf(w, "\ndiscrete:   ")
	for _, v := range blocks(f.Discrete.EpisodeRewards) {
		fmt.Fprintf(w, "%7.0f", v)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "continuous converged at episode %d (%v); discrete converged: %v\n",
		f.Continuous.ConvergedAt, f.Continuous.ConvergedAt >= 0, f.Discrete.ConvergedAt >= 0)
}
