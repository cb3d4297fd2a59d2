package experiments

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"automdt/internal/core"
	"automdt/internal/env"
	"automdt/internal/sim"
)

// Mode for tests honours AUTOMDT_MODE=paper for full-fidelity runs.
func testMode() Mode {
	if os.Getenv("AUTOMDT_MODE") == "paper" {
		return Paper
	}
	return Quick
}

func TestTestbedConfigsValid(t *testing.T) {
	for _, tb := range []Testbed{ReadBottleneck(), NetworkBottleneck(), WriteBottleneck(), ConnsBottleneck(), Wan()} {
		if err := tb.Cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", tb.Name, err)
		}
		// NStar must (nearly) saturate the bottleneck on each physical
		// stage: n·TPT ≥ 95% of it (the paper rounds n* = b/TPT, e.g.
		// 1000/195 → 5), with the network stage also bounded by the
		// per-connection ceiling when one is configured.
		for _, st := range []sim.Stage{sim.Read, sim.Network, sim.Write} {
			n := tb.TargetN(st)
			cap := float64(n) * tb.Cfg.TPT[st]
			if st == sim.Network && tb.Cfg.ConnMbps > 0 {
				connCap := tb.Cfg.ConnMbps * float64(tb.NStar.N[env.StageConns])
				if connCap < cap {
					cap = connCap
				}
			}
			if cap < tb.Bottleneck*0.95 {
				t.Fatalf("%s stage %v: n*·rate = %.0f < bottleneck %.0f", tb.Name, st, cap, tb.Bottleneck)
			}
		}
		for i, n := range tb.NStar.N {
			if n > tb.MaxThreads {
				t.Fatalf("%s dim %d: n*=%d exceeds MaxThreads %d", tb.Name, i, n, tb.MaxThreads)
			}
		}
	}
}

func TestFig5ReadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment skipped in -short mode")
	}
	res, err := Fig5Read(testMode())
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: AutoMDT completes the transfer, faster than Marlin.
	if !res.Auto.Run.Completed {
		t.Fatal("AutoMDT did not complete")
	}
	if res.Marlin.Run.Completed && res.Marlin.Run.Ticks < res.Auto.Run.Ticks {
		t.Fatalf("Marlin (%d s) beat AutoMDT (%d s): wrong shape", res.Marlin.Run.Ticks, res.Auto.Run.Ticks)
	}
	// AutoMDT reaches the target concurrency and does so before Marlin
	// (the paper's 6 s vs 29 s claim, loosely).
	if res.Auto.TimeToTarget < 0 {
		t.Fatal("AutoMDT never reached target read concurrency")
	}
	if res.Marlin.TimeToTarget >= 0 && res.Marlin.TimeToTarget < res.Auto.TimeToTarget {
		t.Fatalf("Marlin reached target first (%.0f s vs %.0f s)", res.Marlin.TimeToTarget, res.Auto.TimeToTarget)
	}
}

func TestKSweepShape(t *testing.T) {
	rows := KSweep([]float64{1.001, 1.02, 1.2})
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	// More aggressive penalty → no more total threads.
	if rows[0].TotalThreads < rows[1].TotalThreads || rows[1].TotalThreads < rows[2].TotalThreads {
		t.Fatalf("thread counts not monotone in k: %d %d %d",
			rows[0].TotalThreads, rows[1].TotalThreads, rows[2].TotalThreads)
	}
	// k=1.02 keeps ≥85% of the gentle-k throughput with fewer threads.
	if rows[1].Mbps < 0.85*rows[0].Mbps {
		t.Fatalf("k=1.02 throughput %v too far below k=1.001's %v", rows[1].Mbps, rows[0].Mbps)
	}
	// Harsh penalty costs meaningful throughput (the trade-off exists).
	if rows[2].Mbps > rows[0].Mbps {
		t.Fatalf("k=1.2 should not beat k=1.001 (%v vs %v)", rows[2].Mbps, rows[0].Mbps)
	}
}

func TestAblationJointShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment skipped in -short mode")
	}
	res, err := AblationJoint(testMode())
	if err != nil {
		t.Fatal(err)
	}
	if res.AutoMbps < res.JointMbps {
		t.Fatalf("joint GD (%v) outperformed AutoMDT (%v): wrong shape", res.JointMbps, res.AutoMbps)
	}
	if math.IsNaN(res.MarlinMbps) {
		t.Fatal("marlin result NaN")
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment skipped in -short mode")
	}
	res, err := Fig5Read(testMode())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	PrintCompare(&b, res)
	out := b.String()
	for _, want := range []string{"AutoMDT", "Marlin", "TCT", "concurrency trace"} {
		if !strings.Contains(out, want) {
			t.Fatalf("PrintCompare output missing %q:\n%s", want, out)
		}
	}
}

func TestTrainedSystemCaching(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment skipped in -short mode")
	}
	tb := ReadBottleneck()
	a, err := TrainedSystem(tb, testMode(), 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainedSystem(tb, testMode(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("TrainedSystem not cached")
	}
}

func TestCompareTargetStageSeries(t *testing.T) {
	// Smoke-check stage→series mapping used by runCompare.
	for _, st := range []sim.Stage{sim.Read, sim.Network, sim.Write} {
		name := map[sim.Stage]string{
			sim.Read: "cc_read", sim.Network: "cc_net", sim.Write: "cc_write",
		}[st]
		if name == "" {
			t.Fatalf("no series for stage %v", st)
		}
	}
}

// TestTrainingTrajectoryPinned pins the PPO trajectory on the
// conns-bottleneck testbed bit for bit: the episode count, the episode
// that first reached 90 % of Rmax, and an FNV-64a over the IEEE-754 bits
// of every episode reward. Seed 1 is the training the repo benchmark
// times as adaptive_wan's setup_s; seed 2 is the one the tests below
// share through the cache. The values were computed on commit 929527a
// (PR 21), whose simulator pushed one container/heap event per ϵ-retry;
// the retry-FIFO simulator reproduces them exactly. A change that moves
// them has changed the simulator's dynamics, the probe, the jitter
// stream or PPO itself, and has to say so by changing the pin.
func TestTrainingTrajectoryPinned(t *testing.T) {
	if testing.Short() || testMode() != Quick {
		t.Skip("trains two Quick policies; skipped with -short and in paper mode")
	}
	for _, pin := range []struct {
		seed                  int64
		episodes, convergedAt int
		rewards               uint64
	}{
		{1, 576, 275, 0xa345ec411a229423},
		{2, 1193, 892, 0x8d9f091f09e559bd},
	} {
		sys, err := TrainedSystem(ConnsBottleneck(), Quick, pin.seed)
		if err != nil {
			t.Fatal(err)
		}
		r := sys.TrainResult
		h := fnv.New64a()
		for _, x := range r.EpisodeRewards {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
		if r.Episodes != pin.episodes || r.ConvergedAt != pin.convergedAt || h.Sum64() != pin.rewards {
			t.Errorf("seed %d: %d episodes, converged at %d, rewards %#x; pinned %d, %d, %#x",
				pin.seed, r.Episodes, r.ConvergedAt, h.Sum64(), pin.episodes, pin.convergedAt, pin.rewards)
		}
	}
}

// The conns-bottleneck testbed caps each data connection at 100 Mbps, so
// throughput scales with the conns dimension, not streams: the trained
// policy must discover multi-connection striping (n_c well above 1) and
// approach the 1 Gbps link. This is the acceptance check for the conns
// dimension being a first-class controller knob.
func TestTrainConvergesOnConnsBottleneck(t *testing.T) {
	if testing.Short() {
		t.Skip("training is slow; skipped with -short")
	}
	tb := ConnsBottleneck()
	sys, err := TrainedSystem(tb, testMode(), 2)
	if err != nil {
		t.Fatal(err)
	}
	st := &core.SimTransfer{
		Cfg:        tb.Cfg,
		Controller: sys.DeterministicController(),
		TotalMb:    1e12,
		MaxTicks:   120,
		MaxThreads: tb.MaxThreads,
	}
	r := st.Run()
	window := func(name string) float64 {
		pts := r.Rec.Series(name).Points()
		var sum float64
		var n int
		for _, p := range pts {
			if p.T > 60 { // steady state
				sum += p.V
				n++
			}
		}
		if n == 0 {
			t.Fatalf("series %s empty after t=60", name)
		}
		return sum / float64(n)
	}
	conns := window("cc_conns")
	e2e := window("thr_e2e")
	if conns < 4 {
		t.Fatalf("policy holds %.1f data connections at steady state; the 100 Mbps per-conn cap needs many (n*_c=%d)",
			conns, tb.NStar.N[env.StageConns])
	}
	if e2e < 0.75*tb.Bottleneck {
		t.Fatalf("steady-state goodput %.0f Mbps, want ≥75%% of the %.0f Mbps link", e2e, tb.Bottleneck)
	}
	// A single-connection policy tops out at ConnMbps·n_s... clamped by
	// the per-conn ceiling: confirm the testbed actually punishes conns=1
	// so the assertion above is meaningful.
	one := &core.SimTransfer{
		Cfg:        tb.Cfg,
		Controller: staticCC(1),
		TotalMb:    1e12,
		MaxTicks:   40,
		MaxThreads: tb.MaxThreads,
	}
	ro := one.Run()
	pts := ro.Rec.Series("thr_e2e").Points()
	var oneMbps float64
	for _, p := range pts {
		if p.V > oneMbps {
			oneMbps = p.V
		}
	}
	if oneMbps > 150 {
		t.Fatalf("one-connection baseline reached %.0f Mbps; the per-conn cap is not binding", oneMbps)
	}
	if e2e < 3*oneMbps {
		t.Fatalf("trained policy (%.0f Mbps) not clearly above the one-conn ceiling (%.0f Mbps)", e2e, oneMbps)
	}
}
