package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refTask and refQueue are the event queue of the simulator this package
// shipped before the retry FIFO: one container/heap event per worker per
// ϵ-retry. They exist only to drive stepReference.
type refTask struct {
	t     float64
	stage Stage
	seq   int
}

// refQueue is a min-heap ordered by time, then sequence for determinism.
type refQueue []refTask

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refTask)) }
func (q *refQueue) Pop() any     { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// refSim runs the previous Step over a Simulator's configuration and
// buffers. events counts popped events, for the record in CHANGES.md.
type refSim struct {
	*Simulator
	q      refQueue
	events int
}

// effectiveRate is the previous per-chunk rate computation, verbatim: the
// caps recomputed and one jitter sample drawn on every executed chunk.
func (s *Simulator) effectiveRate(st Stage, n, conns int) float64 {
	r := s.cfg.TPT[st]
	if bw := s.cfg.Bandwidth[st]; bw > 0 && n > 0 {
		r = math.Min(r, bw/float64(n))
	}
	if st == Network && s.cfg.ConnMbps > 0 && n > 0 && conns > 0 {
		r = math.Min(r, s.cfg.ConnMbps*float64(conns)/float64(n))
	}
	if s.cfg.Jitter > 0 && s.cfg.Rand != nil {
		r *= 1 + s.cfg.Jitter*(2*s.cfg.Rand.Float64()-1)
	}
	return r
}

// stepReference is the previous Step, verbatim but for the type names and
// the event counter: the oracle that pins the dynamics bit for bit.
func (s *refSim) stepReference(nr, nc, ns, nw int) Result {
	cfg := &s.cfg
	tEnd := cfg.StepDuration
	var moved [3]float64

	nc = max(0, nc)
	nn := nc * max(0, ns)

	s.q = s.q[:0]
	seq := 0
	schedule := func(st Stage, count int) {
		for i := 0; i < count; i++ {
			s.q = append(s.q, refTask{t: 0, stage: st, seq: seq})
			seq++
		}
	}
	schedule(Read, max(0, nr))
	schedule(Network, nn)
	schedule(Write, max(0, nw))
	heap.Init(&s.q)

	counts := [3]int{max(0, nr), nn, max(0, nw)}
	const tiny = 1e-9

	for s.q.Len() > 0 {
		tk := heap.Pop(&s.q).(refTask)
		s.events++
		t := tk.t

		// TASK(t, threadType): attempt one chunk move.
		var avail float64
		switch tk.stage {
		case Read:
			avail = cfg.SenderBufCap - s.senderBuf
		case Network:
			avail = math.Min(s.senderBuf, cfg.ReceiverBufCap-s.receiverBuf)
		case Write:
			avail = s.receiverBuf
		}
		var tNext float64
		if avail <= tiny {
			// Blocked: retry after ϵ.
			tNext = t + cfg.RetryDelay
		} else {
			chunk := math.Min(cfg.ChunkMb, avail)
			rate := s.effectiveRate(tk.stage, counts[tk.stage], nc)
			dTask := chunk / rate
			if t+dTask > tEnd {
				// Partial completion at the step boundary.
				frac := (tEnd - t) / dTask
				chunk *= frac
				dTask = tEnd - t
			}
			moved[tk.stage] += chunk
			switch tk.stage {
			case Read:
				s.senderBuf = math.Min(cfg.SenderBufCap, s.senderBuf+chunk)
			case Network:
				s.senderBuf = math.Max(0, s.senderBuf-chunk)
				s.receiverBuf = math.Min(cfg.ReceiverBufCap, s.receiverBuf+chunk)
			case Write:
				s.receiverBuf = math.Max(0, s.receiverBuf-chunk)
			}
			tNext = t + dTask + tiny
		}
		if tNext < tEnd {
			heap.Push(&s.q, refTask{t: tNext, stage: tk.stage, seq: seq})
			seq++
		}
	}

	res := Result{
		SenderBufUsed:   s.senderBuf,
		ReceiverBufUsed: s.receiverBuf,
		SenderBufFree:   cfg.SenderBufCap - s.senderBuf,
		ReceiverBufFree: cfg.ReceiverBufCap - s.receiverBuf,
	}
	for st := Read; st <= Write; st++ {
		res.Throughput[st] = moved[st] / tEnd
	}
	return res
}

// oracleConfigs are the five testbeds of internal/experiments (which this
// package cannot import), one whose staging buffers hold five and two
// chunks, so every stage spends most of the step blocked, and one built
// to make ties.
func oracleConfigs() map[string]Config {
	lan := func(tpt [3]float64, conn float64) Config {
		return Config{TPT: tpt, Bandwidth: [3]float64{1000, 1000, 1000}, ConnMbps: conn,
			SenderBufCap: 500, ReceiverBufCap: 500, ChunkMb: 8}
	}
	tiny := lan([3]float64{80, 160, 200}, 0)
	tiny.SenderBufCap, tiny.ReceiverBufCap = 40, 16
	return map[string]Config{
		"read":  lan([3]float64{80, 160, 200}, 0),
		"net":   lan([3]float64{205, 75, 195}, 0),
		"write": lan([3]float64{200, 150, 70}, 0),
		"conns": lan([3]float64{200, 150, 200}, 100),
		"wan": {TPT: [3]float64{2800, 1250, 2400}, Bandwidth: [3]float64{26000, 25000, 26000},
			SenderBufCap: 12000, ReceiverBufCap: 12000, ChunkMb: 64},
		"tiny": tiny,
		// A chunk takes 2 ms and ϵ is 2 ms + the 1 ns inter-chunk gap, so
		// workers that executed and workers that retried land on the same
		// instants and the run heap and the retry FIFO tie all the time.
		"lattice": {TPT: [3]float64{100, 100, 100}, SenderBufCap: 4, ReceiverBufCap: 2,
			ChunkMb: 0.2, RetryDelay: 0.2/100 + 1e-9},
	}
}

// oraclePair builds the simulator under test and the oracle over equal
// configurations, each with its own same-seed Rand when jitter is on.
func oraclePair(cfg Config, jitter float64, seed int64) (*Simulator, *refSim) {
	mk := func() *Simulator {
		c := cfg
		if c.Jitter = jitter; jitter > 0 {
			c.Rand = rand.New(rand.NewSource(seed))
		}
		return New(c)
	}
	return mk(), &refSim{Simulator: mk()}
}

// checkStep runs one step on both sides and fails on any difference in
// the Result or the buffers.
func checkStep(t testing.TB, got *Simulator, ref *refSim, step, nr, nc, ns, nw int) {
	t.Helper()
	want, have := ref.stepReference(nr, nc, ns, nw), got.Step(nr, nc, ns, nw)
	if have != want {
		t.Fatalf("step %d ⟨%d,%d,%d,%d⟩: Result\n got %+v\nwant %+v", step, nr, nc, ns, nw, have, want)
	}
	gs, gr := got.Buffers()
	ws, wr := ref.Buffers()
	if gs != ws || gr != wr {
		t.Fatalf("step %d: buffers (%v, %v), oracle (%v, %v)", step, gs, gr, ws, wr)
	}
}

// randPositionsEqual reports whether both sides drew the same number of
// jitter samples, by comparing the next one.
func randPositionsEqual(got *Simulator, ref *refSim) bool {
	return got.cfg.Rand == nil || got.cfg.Rand.Int63() == ref.cfg.Rand.Int63()
}

// TestStepMatchesReference drives Step and the oracle over a seeded grid
// with == on every Result: seven configurations, jitter off (where workers
// share the kϵ lattice and tie order decides results) and on (where the
// Rand stream must be consumed in the same order), counts from [0, 32]
// including zeros, buffers re-drawn every 10th step, rates, bandwidths and
// the connection ceiling changed mid-run.
func TestStepMatchesReference(t *testing.T) {
	steps := 2000
	if testing.Short() {
		steps = 200
	}
	for name, cfg := range oracleConfigs() {
		for _, jitter := range []float64{0, 0.05} {
			t.Run(fmt.Sprintf("%s/jitter=%v", name, jitter), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(name)) + int64(jitter*100)))
				got, ref := oraclePair(cfg, jitter, 99)
				// Uniform counts would make the mean step 16·16 network
				// workers and 130 k oracle events; draw small counts nine
				// times in ten so 2000 steps stay affordable.
				count := func() int {
					if rng.Intn(10) == 0 {
						return rng.Intn(33)
					}
					return rng.Intn(7)
				}
				for i := 0; i < steps; i++ {
					if i%10 == 0 {
						sb, rb := rng.Float64()*cfg.SenderBufCap*1.1, rng.Float64()*cfg.ReceiverBufCap*1.1
						got.SetBuffers(sb, rb)
						ref.SetBuffers(sb, rb)
					}
					// Degrade the path for 25 steps in every 97, then restore it.
					switch i % 97 {
					case 50:
						st, f, conn := Stage(rng.Intn(3)), 0.3+rng.Float64(), float64(rng.Intn(2))*100
						for _, s := range []*Simulator{got, ref.Simulator} {
							s.SetTPT(st, cfg.TPT[st]*f)
							s.cfg.Bandwidth[(st+1)%3] = cfg.Bandwidth[st] * f
							s.cfg.ConnMbps = conn * f
						}
					case 75:
						for _, s := range []*Simulator{got, ref.Simulator} {
							s.cfg.TPT, s.cfg.Bandwidth, s.cfg.ConnMbps = cfg.TPT, cfg.Bandwidth, cfg.ConnMbps
						}
					}
					checkStep(t, got, ref, i, count(), count(), count(), count())
				}
				if !randPositionsEqual(got, ref) {
					t.Fatal("Rand streams diverged")
				}
				t.Logf("%d steps, %d oracle events per step", steps, ref.events/steps)
			})
		}
	}
}

// FuzzStepMatchesReference lets the fuzzer pick the counts, the starting
// buffer fill, the chunk size and ϵ, and compares six steps with ==.
func FuzzStepMatchesReference(f *testing.F) {
	f.Add(uint8(2), uint8(15), uint8(11), uint8(14), uint8(0), uint8(0), uint8(8), uint8(30), uint8(3), false)
	f.Add(uint8(13), uint8(1), uint8(7), uint8(5), uint8(255), uint8(128), uint8(1), uint8(0), uint8(5), true)
	f.Add(uint8(0), uint8(32), uint8(32), uint8(1), uint8(200), uint8(255), uint8(64), uint8(255), uint8(0), false)
	names := []string{"read", "net", "write", "conns", "wan", "tiny", "lattice"}
	f.Fuzz(func(t *testing.T, nr, nc, ns, nw, sender, receiver, chunk, eps, which uint8, jitter bool) {
		cfg := oracleConfigs()[names[int(which)%len(names)]]
		cfg.ChunkMb = cfg.ChunkMb * float64(1+chunk%64) / 8
		if eps > 0 { // 0 keeps the configuration's own ϵ; else 0.5–13 ms, which bounds the oracle's event count
			cfg.RetryDelay = 0.0005 + 0.0125*float64(eps)/255
		}
		j := 0.0
		if jitter {
			j = 0.05
		}
		got, ref := oraclePair(cfg, j, int64(which))
		sb, rb := cfg.SenderBufCap*float64(sender)/255, cfg.ReceiverBufCap*float64(receiver)/255
		got.SetBuffers(sb, rb)
		ref.SetBuffers(sb, rb)
		for i := 0; i < 6; i++ {
			// Rotate the tuple so each stage sees each count.
			n := [4]int{int(nr % 33), int(nc % 33), int(ns % 33), int(nw % 33)}
			checkStep(t, got, ref, i, n[i%4], n[(i+1)%4], n[(i+2)%4], n[(i+3)%4])
		}
		if !randPositionsEqual(got, ref) {
			t.Fatal("Rand streams diverged")
		}
	})
}

// connsConfig is experiments.ConnsBottleneck's path, the one the repo
// benchmark trains on; ⟨2,15,11,14⟩ starves 165 network workers and 14
// writers behind two readers.
func connsConfig() Config { return oracleConfigs()["conns"] }

// TestStepZeroAllocs pins the allocation-free steady state: after one
// warm-up step sizes the queues, a step allocates nothing.
func TestStepZeroAllocs(t *testing.T) {
	cfg := connsConfig()
	cfg.Jitter, cfg.Rand = 0.05, rand.New(rand.NewSource(1))
	for _, n := range [][4]int{{2, 15, 11, 14}, {13, 1, 7, 5}} {
		s := New(cfg)
		s.Step(n[0], n[1], n[2], n[3])
		if a := testing.AllocsPerRun(20, func() { s.Step(n[0], n[1], n[2], n[3]) }); a != 0 {
			t.Errorf("Step%v: %v allocs per step, want 0", n, a)
		}
	}
}

// BenchmarkStepBlocked is the blocked-heavy step: almost every event of
// the oracle here is a starved worker re-queuing itself ϵ later.
func BenchmarkStepBlocked(b *testing.B) {
	cfg := connsConfig()
	cfg.Jitter, cfg.Rand = 0.05, rand.New(rand.NewSource(1))
	s := New(cfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Step(2, 15, 11, 14)
	}
}

// BenchmarkStepBlockedReference is the same step on the oracle, so the
// log shows the before and after side by side.
func BenchmarkStepBlockedReference(b *testing.B) {
	cfg := connsConfig()
	cfg.Jitter, cfg.Rand = 0.05, rand.New(rand.NewSource(1))
	s := &refSim{Simulator: New(cfg)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.stepReference(2, 15, 11, 14)
	}
}

// BenchmarkStepBalanced is the step the repo benchmark times as
// sim.steps_per_s: the conns-bottleneck optimum, where every stage runs
// and almost nothing retries, so the cost is the run heap's.
func BenchmarkStepBalanced(b *testing.B) {
	s := New(connsConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Step(5, 10, 1, 5)
	}
}
