package marlin

import (
	"math"
	"testing"

	"automdt/internal/core"
	"automdt/internal/env"
	"automdt/internal/metrics"
	"automdt/internal/sim"
)

func state(n [env.StageCount]int, t env.StageVec) env.State {
	return env.State{N: n, Throughput: t, SenderFree: 100, ReceiverFree: 100}
}

// uniform builds a state with the same concurrency and throughput on
// every dimension, the symmetric fixture the hill-climb tests use.
func uniform(n int, tp float64) env.State {
	return state(
		[env.StageCount]int{n, n, n, n},
		env.StageVec{tp, tp, tp, tp},
	)
}

func TestDefaults(t *testing.T) {
	o := New()
	if o.K != env.DefaultK || o.MaxStep != 4 || o.Tol != 0.01 {
		t.Fatalf("defaults: %+v", o)
	}
	if o.Name() != "marlin" {
		t.Fatalf("name %q", o.Name())
	}
}

func TestBootstrapProbesUp(t *testing.T) {
	o := New()
	a := o.Decide(uniform(3, 100))
	if a.N != [env.StageCount]int{4, 4, 4, 4} {
		t.Fatalf("bootstrap %v", a.N)
	}
}

func TestAccelerationOnImprovement(t *testing.T) {
	o := New()
	o.Decide(uniform(2, 100))
	// We moved +1 and throughput doubled: keep direction, double step.
	a := o.Decide(uniform(3, 220))
	for i, n := range a.N {
		if n != 5 { // 3 + dir(+1)·step(2)
			t.Fatalf("stage %d: %d want 5 (accelerated)", i, n)
		}
	}
}

func TestStepCapRespected(t *testing.T) {
	o := New()
	o.MaxStep = 2
	o.Decide(uniform(2, 100))
	o.Decide(uniform(3, 250))      // step 2
	a := o.Decide(uniform(5, 500)) // step would be 4, capped 2
	for i, n := range a.N {
		if n != 7 {
			t.Fatalf("stage %d: %d want 7 (cap 2)", i, n)
		}
	}
}

func TestFlatGradientKeepsProbing(t *testing.T) {
	o := New()
	o.Decide(uniform(5, 100))
	// +1 threads, essentially unchanged utility → probe up by 1.
	a := o.Decide(uniform(6, 101.5))
	for i, n := range a.N {
		if n != 7 {
			t.Fatalf("stage %d: %d want 7 (flat probe)", i, n)
		}
	}
}

func TestHoldPacing(t *testing.T) {
	o := New()
	o.Hold = 3
	s := uniform(4, 100)
	a1 := o.Decide(s) // acts
	if a1.N == s.N {
		t.Fatal("first decision should act")
	}
	// Next two decisions hold the configuration.
	s2 := state(a1.N, env.StageVec{120, 120, 120, 120})
	if a := o.Decide(s2); a.N != s2.N {
		t.Fatalf("hold tick changed threads: %v", a.N)
	}
	if a := o.Decide(s2); a.N != s2.N {
		t.Fatal("second hold tick changed threads")
	}
	// Third decision acts again.
	if a := o.Decide(s2); a.N == s2.N {
		t.Fatal("post-hold decision should act")
	}
}

// TestResetClearsState: a fresh run takes a fresh Optimizer, which
// bootstraps (acts on its first decision) whatever another instance has
// seen.
func TestResetClearsState(t *testing.T) {
	used := New()
	used.Hold = 2
	used.Decide(uniform(4, 100))
	o := New()
	o.Hold = 2
	a := o.Decide(uniform(4, 100))
	if a.N != [env.StageCount]int{5, 5, 5, 5} {
		t.Fatalf("fresh-run bootstrap %v", a.N)
	}
}

func TestActionsNeverBelowOne(t *testing.T) {
	o := New()
	o.Decide(uniform(1, 10))
	// Utility collapse → reversal, but floor at 1.
	a := o.Decide(uniform(2, 0.01))
	for i, n := range a.N {
		if n < 1 {
			t.Fatalf("stage %d went to %d", i, n)
		}
	}
}

func TestJointGDDefaults(t *testing.T) {
	j := NewJointGD()
	if j.Name() != "joint-gd" || j.Step0 != 3 || j.Decay != 0.90 {
		t.Fatalf("%+v", j)
	}
}

func TestJointGDStepDecaysToFrozen(t *testing.T) {
	j := NewJointGD()
	s := uniform(5, 100)
	prev := s
	var lastAct env.Action
	frozen := false
	for i := 0; i < 60; i++ {
		lastAct = j.Decide(prev)
		prev = state(lastAct.N, env.StageVec{100, 100, 100, 100})
		if i > 40 && lastAct.N == prev.N {
			frozen = true
		}
	}
	_ = lastAct
	if !frozen {
		t.Fatal("joint GD step never decayed to zero movement")
	}
}

// The §III story end-to-end: on a pipeline where the buffers start empty,
// joint GD must end far below what the bottleneck allows, while the
// simple Marlin hill climbers keep making progress.
func TestJointGDStallsOnWanPipeline(t *testing.T) {
	cfg := sim.Config{
		TPT:            [3]float64{2800, 1250, 2400},
		Bandwidth:      [3]float64{26000, 25000, 26000},
		SenderBufCap:   12000,
		ReceiverBufCap: 12000,
		ChunkMb:        64,
	}
	run := func(ctrl env.Controller) float64 {
		st := &core.SimTransfer{Cfg: cfg, Controller: ctrl, TotalMb: 400_000,
			MaxTicks: 600, MaxThreads: 32}
		r := st.Run()
		// steady-state end-to-end rate over the last half
		vs := r.Rec.Series("thr_e2e").Values()
		return metrics.Summarize(vs[len(vs)/2:]).Mean
	}
	joint := run(NewJointGD())
	marlin := run(New())
	if joint > 0.6*marlin {
		t.Fatalf("joint GD (%.0f Mbps) not clearly stalled vs Marlin (%.0f Mbps)", joint, marlin)
	}
	if math.IsNaN(joint) || joint <= 0 {
		t.Fatalf("joint GD rate %v", joint)
	}
}

// TestLaggedThroughputLeavesFloor drives Marlin against the simulator on
// the conns-bottleneck testbed (100 Mbps per connection on a 1 Gbps path)
// and hands it each tick's throughput one tick late, as the live engine
// reports it. The lagged samples show each step's thread penalty before
// its gain, so the climbers reverse down to n = 1, where a downward
// request is clamped. A climber must then bounce back up rather than ask
// for 0 forever: without the bounce every decision from tick 14 on is
// ⟨1,1,1,1⟩.
func TestLaggedThroughputLeavesFloor(t *testing.T) {
	s := sim.New(sim.Config{
		TPT:            [3]float64{200, 150, 200},
		Bandwidth:      [3]float64{1000, 1000, 1000},
		ConnMbps:       100,
		SenderBufCap:   500,
		ReceiverBufCap: 500,
		ChunkMb:        8,
	})
	o := New()
	act := env.ActionOf(1, 1, 1, 1)
	var lagged env.StageVec
	left := 0
	for tick := 1; tick <= 60; tick++ {
		res := s.Step(act.N[env.StageRead], act.N[env.StageConns], act.N[env.StageStreams], act.N[env.StageWrite])
		st := state(act.N, lagged)
		lagged = env.ThroughputVec(res.Throughput[sim.Read], res.Throughput[sim.Network], res.Throughput[sim.Write])
		act = o.Decide(st).Clamp(20)
		if tick > 30 && act.N != [env.StageCount]int{1, 1, 1, 1} {
			left++
		}
	}
	if left == 0 {
		t.Fatal("Marlin sat at ⟨1,1,1,1⟩ for the last 30 ticks under one tick of lag")
	}
}
