package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"automdt/internal/env"
	"automdt/internal/experiments"
	"automdt/internal/fleet"
	"automdt/internal/fsim"
	"automdt/internal/probe"
	"automdt/internal/rl"
	"automdt/internal/sched"
	"automdt/internal/sim"
	"automdt/internal/transfer"
	"automdt/internal/wire"
	"automdt/internal/workload"
)

// The isolated layer timings: each is a tight loop over one public
// function of a module, outside any transfer. They say what a layer
// costs per call; the traced run says how often a workload calls it.

const isoBatches = 5

// iso divides every loop's iteration count by scale: 1 to measure, more
// for the smoke pass.
type iso struct{ scale int }

// perIter runs f iters times per batch and returns the median batch's
// nanoseconds per iteration.
func (s iso) perIter(iters int, f func(i int)) float64 {
	iters = max(1, iters/s.scale)
	ns := make([]float64, isoBatches)
	for b := range ns {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f(i)
		}
		ns[b] = float64(time.Since(t0)) / float64(iters)
	}
	return median(ns)
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark: isolated layer timing: %v", err))
	}
}

// frameRoundTrip times FrameWriter.Write + FrameReader.Read of one
// checksummed frame of n payload bytes through a memory buffer.
func (s iso) frameRoundTrip(n, iters int) float64 {
	payload := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(payload)
	arena := transfer.NewArena(64 << 20)
	var pending *transfer.Buf
	alloc := func(n int) []byte {
		pending = arena.Get(n)
		return pending.Bytes()
	}
	var fw wire.FrameWriter
	var fr wire.FrameReader
	var buf bytes.Buffer
	return s.perIter(iters, func(i int) {
		buf.Reset()
		must(fw.Write(&buf, wire.Frame{FileID: 7, Offset: int64(i) * int64(n), Data: payload, Checksum: true}))
		f, err := fr.Read(&buf, alloc)
		must(err)
		if len(f.Data) != n {
			panic("benchmark: frame round trip lost bytes")
		}
		pending.Release()
	})
}

// ledgerOf builds a session ledger of the given chunk count, split into
// 1 GiB files like a large transfer's.
func ledgerOf(chunks int) (*transfer.Ledger, workload.Manifest) {
	const perFile = 4096
	m := workload.LargeFiles(chunks/perFile, perFile*chunkBytes)
	return transfer.NewLedger("iso-ledger", chunkBytes, m, true), m
}

func commitAll(l *transfer.Ledger, chunks int) {
	for g := 0; g < chunks; g++ {
		l.Commit(uint32(g/4096), int64(g%4096)*chunkBytes, chunkBytes, uint32(g))
	}
}

// terminalScheduler returns a scheduler holding n finished jobs.
func terminalScheduler(n int) *sched.Scheduler {
	s, err := sched.New(sched.Config{
		Budget: [4]int{8, 8, 8, 8},
		Runner: sched.RunnerFunc(func(context.Context, sched.JobSpec, env.Controller) (*transfer.Result, error) {
			return &transfer.Result{Duration: time.Millisecond, Bytes: 1, AvgMbps: 1}, nil
		}),
	})
	must(err)
	for i := 0; i < n; i++ {
		_, err := s.Submit(sched.JobSpec{Name: "iso", Manifest: workload.LargeFiles(1, 1)})
		must(err)
	}
	must(s.Drain(context.Background()))
	return s
}

func ringOf(n int) *fleet.Ring {
	r := fleet.NewRing(0, 0)
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("ep-%d", i))
	}
	return r
}

func (s iso) ringAcquire(n int) float64 {
	r := ringOf(n)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("session-%d", i)
	}
	return s.perIter(20000, func(i int) {
		id, err := r.Acquire(keys[i%len(keys)])
		must(err)
		r.Release(id)
	})
}

// isolatedLayers runs every isolated timing (≈2 s in all; smoke shrinks
// the loops and the ledger to a twentieth).
func isolatedLayers(m map[string]float64, smoke bool) {
	it := iso{scale: 1}
	if smoke {
		it.scale = 20
	}
	// wire
	chunk := make([]byte, chunkBytes)
	rand.New(rand.NewSource(2)).Read(chunk)
	var sink uint32
	m["wire.crc_GBps_256k"] = chunkBytes / it.perIter(2000, func(int) { sink += wire.PayloadCRC(chunk) })
	run := make([]byte, 16*chunkBytes)
	rand.New(rand.NewSource(3)).Read(run)
	var sums []uint32
	m["wire.batchcrc_GBps"] = float64(len(run)) / it.perIter(125, func(int) { sums = wire.BatchCRC(sums[:0], run, chunkBytes) })
	m["wire.frame_rt_ns_256k"] = it.frameRoundTrip(chunkBytes, 1000)
	m["wire.frame_rt_ns_4k"] = it.frameRoundTrip(4<<10, 20000)

	// transfer: staging, arena, ledger
	arena := transfer.NewArena(64 << 20)
	st := transfer.NewStaging(8 << 20)
	m["transfer.staging_handoff_ns"] = it.perIter(100000, func(i int) {
		b := arena.Get(chunkBytes)
		if !st.Put(transfer.Chunk{FileID: 1, Offset: int64(i), Data: b.Bytes(), Buf: b}) {
			panic("benchmark: staging closed")
		}
		c, ok, _ := st.TryGet()
		if !ok {
			panic("benchmark: staged chunk missing")
		}
		c.Release()
	})
	m["transfer.arena_lease_ns"] = it.perIter(200000, func(int) { arena.Get(chunkBytes).Release() })

	const tick = 1024 // chunks committed between two probe ticks (256 MiB)
	l, _ := ledgerOf(64 << 10)
	commitAll(l, 64<<10)
	l.AppendSince()
	var tickBytes int
	m["transfer.ledger_commit_ns"] = it.perIter(40, func(i int) {
		start := i * tick % (64 << 10)
		for j := 0; j < tick; j++ {
			g := start + j
			l.Invalidate(uint32(g/4096), int64(g%4096)*chunkBytes, chunkBytes)
			l.Commit(uint32(g/4096), int64(g%4096)*chunkBytes, chunkBytes, uint32(g))
		}
		tickBytes = len(l.AppendSince())
	}) / tick
	// An invalidate and a commit record per chunk: half of it is the tick.
	m["transfer.ledger_tick_bytes"] = float64(tickBytes) / 2

	big := (256 << 10) / it.scale / 4096 * 4096
	full, _ := ledgerOf(big)
	commitAll(full, big)
	m["transfer.ledger_snapshot_ms"] = it.perIter(1, func(int) { sink += uint32(len(full.EncodeV2())) }) / 1e6
	// The resume path: an empty snapshot plus a journal of one commit
	// record per chunk, loaded the way a restarted receiver loads it.
	fresh, _ := ledgerOf(big)
	store := fsim.NewSyntheticStore()
	must(store.SaveLedger("iso-ledger", fresh.EncodeV2()))
	journal := fresh.JournalHeader()
	commitAll(fresh, big)
	must(store.AppendLedger("iso-ledger", append(journal, fresh.AppendSince()...)))
	m["transfer.ledger_replay_ms"] = it.perIter(1, func(int) {
		got, err := transfer.LoadSessionLedger(store, "iso-ledger")
		must(err)
		if got.CommittedChunks() != int64(big) {
			panic("benchmark: ledger replay lost commits")
		}
	}) / 1e6

	// sched
	s := terminalScheduler(sched.DefaultHistory)
	m["sched.snapshot_us"] = it.perIter(20, func(int) { sink += uint32(s.Snapshot().Len()) }) / 1e3
	m["sched.list_us"] = it.perIter(20, func(int) { sink += uint32(len(s.List())) }) / 1e3
	s.Close()

	// fleet
	m["fleet.ring_acquire_ns_3"] = it.ringAcquire(3)
	m["fleet.ring_acquire_ns_64"] = it.ringAcquire(64)
	reg := fleet.NewRegistry(time.Minute)
	for i := 0; i < 64; i++ {
		must(reg.Register(fleet.EndpointInfo{ID: fmt.Sprintf("ep-%d", i)}))
	}
	m["fleet.registry_heartbeat_ns"] = it.perIter(100000, func(i int) { must(reg.Heartbeat("ep-7")) })
	m["fleet.registry_live_ns_64"] = it.perIter(5000, func(int) { sink += uint32(len(reg.Live())) })

	// probe, nn, sim — on the adaptive_wan testbed and network size
	tb := experiments.ConnsBottleneck()
	t0 := time.Now()
	_, err := probe.Explore(probe.SimRunner{Sim: sim.New(tb.Cfg)}, rand.New(rand.NewSource(wanTrainSeed)),
		probe.Options{Steps: 300 / it.scale, MaxThreads: tb.MaxThreads})
	must(err)
	m["probe.explore_s"] = time.Since(t0).Seconds()
	agent, e := experiments.NewBenchAgent(tb, rl.NetConfig{Hidden: 32, PolicyBlocks: 1, ValueBlocks: 1})
	rate, buf := e.Scales()
	vec := e.Reset().Vector(e.MaxThreads(), rate, buf)
	m["nn.act_mean_us"] = it.perIter(2000, func(int) { sink += uint32(agent.ActMean(vec, tb.MaxThreads).N[0]) }) / 1e3
	sm := sim.New(tb.Cfg)
	n := tb.NStar.N
	m["sim.steps_per_s"] = 1e9 / it.perIter(500, func(int) { sink += uint32(sm.Step(n[0], n[1], n[2], n[3]).Throughput[0]) })

	fmt.Fprint(io.Discard, sink)
}
