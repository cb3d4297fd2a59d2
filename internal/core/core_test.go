package core

import (
	"bytes"
	"math/rand"
	"testing"

	"automdt/internal/env"
	"automdt/internal/marlin"
	"automdt/internal/probe"
	"automdt/internal/rl"
	"automdt/internal/sim"
	"automdt/internal/static"
)

// readBottleneck is the paper's §V-B-1 read-bottleneck testbed.
func readBottleneck() sim.Config {
	return sim.Config{
		TPT:            [3]float64{80, 160, 200},
		Bandwidth:      [3]float64{1000, 1000, 1000},
		SenderBufCap:   500,
		ReceiverBufCap: 500,
		ChunkMb:        8,
	}
}

// fastOpts keeps training quick for tests.
func fastOpts() Options {
	return Options{
		MaxThreads: 16,
		Net:        rl.NetConfig{Hidden: 32, PolicyBlocks: 1, ValueBlocks: 1},
		Train: rl.TrainConfig{
			Episodes:      500,
			LR:            1e-3,
			UpdateEpochs:  4,
			StagnantLimit: 1 << 30,
		},
		Seed: 9,
	}
}

func probeTestbed(t *testing.T) *probe.Profile {
	t.Helper()
	p, err := probe.Explore(probe.SimRunner{Sim: sim.New(readBottleneck())},
		rand.New(rand.NewSource(5)), probe.Options{Steps: 300, MaxThreads: 16})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.K != env.DefaultK || o.MaxThreads != 32 || o.SenderBufMb != 500 || o.Seed != 1 {
		t.Fatalf("defaults: %+v", o)
	}
}

func TestTrainPipelineProducesWorkingController(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	p := probeTestbed(t)
	sys, err := Train(p, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if sys.TrainResult == nil || sys.TrainResult.Episodes == 0 {
		t.Fatal("no training happened")
	}

	// Drive a simulated transfer with the trained controller and compare
	// with the static Globus-like baseline: AutoMDT must finish faster.
	run := func(ctrl env.Controller) *SimTransferResult {
		st := &SimTransfer{
			Cfg:        readBottleneck(),
			Controller: ctrl,
			TotalMb:    8000, // 1 GB at 8 bits/byte
			MaxTicks:   600,
			MaxThreads: 16,
		}
		return st.Run()
	}
	auto := run(sys.Controller())
	if !auto.Completed {
		t.Fatalf("AutoMDT did not complete: wrote %.0f of 8000 Mb in %d s", auto.WrittenMb, auto.Ticks)
	}
	stat := run(static.New(4))
	if stat.Completed && stat.Ticks <= auto.Ticks {
		t.Fatalf("AutoMDT (%d s) not faster than static-4 (%d s)", auto.Ticks, stat.Ticks)
	}
	// AutoMDT should reach ≥60%% of the 1000 Mbps bottleneck on average.
	if auto.AvgMbps < 600 {
		t.Fatalf("AutoMDT average %v Mbps too low", auto.AvgMbps)
	}
}

func TestProbeAndTrain(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	opts := fastOpts()
	opts.Train.Episodes = 50
	sys, err := ProbeAndTrain(probe.SimRunner{Sim: sim.New(readBottleneck())},
		rand.New(rand.NewSource(6)), probe.Options{Steps: 100, MaxThreads: 16}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Profile == nil || sys.Agent == nil {
		t.Fatal("incomplete system")
	}
}

func TestSaveLoadSystemRoundTrip(t *testing.T) {
	p := probeTestbed(t)
	opts := fastOpts()
	opts.Train.Episodes = 20
	sys, err := Train(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.SaveAgent(&buf); err != nil {
		t.Fatal(err)
	}
	saved := bytes.Clone(buf.Bytes())
	restored, err := LoadSystem(&buf, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := restored.SaveAgent(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved) {
		t.Fatal("restored agent differs")
	}
}

func TestLoadSystemArchMismatch(t *testing.T) {
	p := probeTestbed(t)
	opts := fastOpts()
	opts.Train.Episodes = 5
	sys, err := Train(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sys.SaveAgent(&buf)
	bad := opts
	bad.Net.Hidden = 64
	if _, err := LoadSystem(&buf, p, bad); err == nil {
		t.Fatal("expected architecture mismatch error")
	}
}

func TestSimTransferFixedThreadsCompletes(t *testing.T) {
	st := &SimTransfer{
		Cfg:            readBottleneck(),
		TotalMb:        2000,
		InitialThreads: 13, // enough read threads to saturate
		MaxTicks:       100,
	}
	// With fixed 13/13/13 (no controller) the bottleneck is saturated.
	res := st.Run()
	if !res.Completed {
		t.Fatalf("fixed-thread transfer incomplete: %.0f Mb in %d s", res.WrittenMb, res.Ticks)
	}
	if res.AvgMbps < 600 || res.AvgMbps > 1100 {
		t.Fatalf("AvgMbps=%v implausible for 1 Gbps link", res.AvgMbps)
	}
	for _, name := range []string{"cc_read", "thr_write", "thr_e2e"} {
		if n := len(res.Rec.Series(name).Points()); n != res.Ticks {
			t.Fatalf("series %s has %d points want %d", name, n, res.Ticks)
		}
	}
}

func TestSimTransferRespectsMaxTicks(t *testing.T) {
	st := &SimTransfer{
		Cfg:            readBottleneck(),
		TotalMb:        1e12,
		InitialThreads: 1,
		MaxTicks:       7,
	}
	res := st.Run()
	if res.Completed || res.Ticks != 7 {
		t.Fatalf("ticks=%d completed=%v", res.Ticks, res.Completed)
	}
}

func TestSimTransferWithMarlin(t *testing.T) {
	st := &SimTransfer{
		Cfg:        readBottleneck(),
		Controller: marlin.New(),
		TotalMb:    4000,
		MaxTicks:   600,
		MaxThreads: 16,
	}
	res := st.Run()
	if !res.Completed {
		t.Fatalf("marlin transfer incomplete: %.0f Mb in %d s", res.WrittenMb, res.Ticks)
	}
	// Marlin starts at 1 and must climb.
	cc := res.Rec.Series("cc_read").Values()
	if cc[0] != 1 {
		t.Fatalf("initial concurrency %v", cc[0])
	}
	climbed := false
	for _, v := range cc {
		if v >= 4 {
			climbed = true
			break
		}
	}
	if !climbed {
		t.Fatal("marlin never climbed concurrency")
	}
}

func TestSimTransferOnTickHook(t *testing.T) {
	var ticks []int
	st := &SimTransfer{
		Cfg:            readBottleneck(),
		TotalMb:        1e12,
		InitialThreads: 13,
		MaxTicks:       5,
		OnTick: func(tick int, s *sim.Simulator) {
			ticks = append(ticks, tick)
			if tick == 3 {
				s.SetTPT(sim.Read, 8) // throttle reads hard
			}
		},
	}
	res := st.Run()
	if len(ticks) != 5 || ticks[0] != 1 || ticks[4] != 5 {
		t.Fatalf("OnTick sequence %v", ticks)
	}
	thr := res.Rec.Series("thr_read").Values()
	if thr[4] >= thr[1] {
		t.Fatalf("mid-run throttle had no effect: %v", thr)
	}
}

func TestDeterministicControllerIsStable(t *testing.T) {
	p := probeTestbed(t)
	opts := fastOpts()
	opts.Train.Episodes = 30
	sys, err := Train(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := sys.DeterministicController()
	s := env.State{N: [env.StageCount]int{5, 1, 5, 5}, Throughput: env.ThroughputVec(400, 400, 400),
		SenderFree: 250, ReceiverFree: 250}
	first := ctrl.Decide(s)
	for i := 0; i < 5; i++ {
		if got := ctrl.Decide(s); got != first {
			t.Fatalf("deterministic controller varied: %v vs %v", got, first)
		}
	}
	if ctrl.Name() != "automdt" {
		t.Fatalf("name %q", ctrl.Name())
	}
}

func TestFineTuneRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	p := probeTestbed(t)
	opts := fastOpts()
	opts.Train.Episodes = 60
	sys, err := Train(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Fine-tune against the ground-truth simulator (the "online" phase).
	e := env.NewSimEnv(sim.New(readBottleneck()), rand.New(rand.NewSource(77)))
	e.MaxThreadsN = 16
	res := sys.FineTune(e, 30)
	if res.Episodes != 30 {
		t.Fatalf("fine-tune ran %d episodes want 30", res.Episodes)
	}
}
