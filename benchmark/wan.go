package main

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"automdt/internal/core"
	"automdt/internal/env"
	"automdt/internal/experiments"
	"automdt/internal/fsim"
	"automdt/internal/rate"
	"automdt/internal/transfer"
	"automdt/internal/workload"
)

// wanWorkload is adaptive_wan: a PPO agent trained offline for a
// 1000 Mbps path whose every data connection is capped at 100 Mbps, then
// live transfers that the agent — not the data plane — has to make fast
// by striping across enough connections.
type wanWorkload struct {
	seed  int64
	smoke bool

	tb     experiments.Testbed
	sys    *core.System
	trainS float64
	arena  *transfer.Arena
	files  int
	size   int64
	opN    int

	lay wanLayers
}

// wanLayers is what a phase's transfers report about the controller.
type wanLayers struct {
	decides                        []time.Duration
	converge, conns, threads, mbps []float64
}

const (
	wanLinkMbps = 1000
	wanConnBps  = 12.5e6 // 100 Mbps per data connection
	// wanTrainSeed fixes the PPO trajectory. Training time depends on the
	// trajectory (episodes to converge, threads simulated per step) and
	// varies 3× from seed to seed, so the run's --seed does not reach it;
	// --seed still names every file and session of the live transfers.
	wanTrainSeed = 1
)

var wanTrainings atomic.Int64

func newAdaptiveWan(seed int64, smoke bool) *wanWorkload {
	w := &wanWorkload{seed: seed, smoke: smoke, tb: experiments.ConnsBottleneck(), files: 16, size: 64 << 20}
	if smoke {
		w.files, w.size = 1, 8<<20
	}
	return w
}

func (w *wanWorkload) tailPct() float64         { return 1 } // two or three ops: the slowest
func (w *wanWorkload) arenaOf() *transfer.Arena { return w.arena }
func (w *wanWorkload) clients() int             { return 1 }

// setup is the offline phase: probe the path and train the agent.
func (w *wanWorkload) setup() error {
	w.arena = transfer.NewArena(transfer.DefaultArenaBytes)
	t0 := time.Now()
	var err error
	if w.smoke {
		w.sys, err = experiments.TrainBudget(w.tb, experiments.Quick, wanTrainSeed, 50)
	} else {
		// TrainedSystem memoizes per testbed name for the life of the
		// process; a name of its own makes every set-up train afresh.
		tb := w.tb
		tb.Name = fmt.Sprintf("%s#%d", tb.Name, wanTrainings.Add(1))
		w.sys, err = experiments.TrainedSystem(tb, experiments.Quick, wanTrainSeed)
	}
	w.trainS = time.Since(t0).Seconds()
	return err
}

func (w *wanWorkload) teardown() error { return nil }

func (w *wanWorkload) run(ph *phase, budget time.Duration) {
	w.lay = wanLayers{}
	for ph.more(budget) {
		ph.add(w.op(ph))
	}
}

// cappedConn is the per-connection bottleneck of the emulated path.
type cappedConn struct {
	net.Conn
	lim *rate.Limiter
}

func (c *cappedConn) Write(p []byte) (int, error) {
	if err := c.lim.WaitN(context.Background(), len(p)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

func (w *wanWorkload) op(ph *phase) opSample {
	w.opN++
	session := fmt.Sprintf("wan-s%d-%d", w.seed, w.opN)
	m := make(workload.Manifest, w.files)
	for i := range m {
		m[i] = workload.File{Name: fmt.Sprintf("%s-%04d.dat", session, i), Size: w.size}
	}
	s := opSample{bytes: m.TotalBytes(), files: w.files}
	var ot *opTrace
	cfg := transfer.Config{
		MaxThreads:     w.tb.MaxThreads,
		InitialThreads: 1,
		ProbeInterval:  250 * time.Millisecond,
		SessionID:      session,
		Arena:          w.arena,
		Shaping: transfer.Shaping{ReadPerThreadMbps: 200, NetPerStreamMbps: 150,
			WritePerThreadMbps: 200, LinkMbps: wanLinkMbps},
		WrapConn: func(kind string, c net.Conn) net.Conn {
			if kind == "data" {
				c = &cappedConn{Conn: c, lim: rate.NewLimiter(wanConnBps, chunkBytes)}
			}
			if ot != nil {
				c = ot.wrapConn(kind, c)
			}
			return c
		},
	}
	hk := newOpHooks(ph)
	cfg.Hooks = hk.hooks()
	var src fsim.Store = fsim.NewSyntheticStore()
	sink := fsim.NewSyntheticStore()
	sink.Verify = true
	var dst fsim.Store = sink
	ctrl := w.sys.DeterministicController()
	var tc *tracedController
	endRoot := func() {}
	if ph.tr != nil {
		ot = &opTrace{t: ph.tr, c: ph.c, op: session}
		src = &sourceStore{inner: src, ot: ot}
		dst = &destStore{inner: sink, opOf: func(string) *opTrace { return ot }}
		tc = &tracedController{inner: ctrl, ot: ot}
		ctrl = tc
		endRoot = ph.tr.begin(session)
	}
	ph.resume()
	t0 := time.Now()
	res, err := transfer.Loopback(context.Background(), cfg, m, src, dst, ctrl)
	t1 := time.Now()
	ph.suspend()
	s.wall = t1.Sub(t0)
	hk.close(t0, t1, ot, res)
	endRoot()
	switch {
	case err != nil:
		s.failed, s.err = true, err.Error()
	case len(sink.Errors()) > 0:
		s.failed, s.err = true, fmt.Sprintf("destination saw corrupt writes, first: %v", sink.Errors()[0])
	case sink.TotalWritten() != s.bytes:
		s.failed, s.err = true, fmt.Sprintf("destination holds %d of %d bytes", sink.TotalWritten(), s.bytes)
	default:
		rec := res.Recorder
		w.lay.converge = append(w.lay.converge, rec.Series("thr_write").TimeToReach(0.9*wanLinkMbps))
		w.lay.conns = append(w.lay.conns, rec.Series("cc_conns").Last().V)
		w.lay.threads = append(w.lay.threads,
			rec.Series("cc_read").Last().V+rec.Series("cc_net").Last().V+rec.Series("cc_write").Last().V)
		w.lay.mbps = append(w.lay.mbps, res.AvgMbps)
		if tc != nil {
			w.lay.decides = append(w.lay.decides, tc.decides...)
		}
	}
	return s
}

func (w *wanWorkload) extraLayers(m map[string]float64, tr *phase) {
	ok, _, _, _, _ := tr.totals()
	us := make([]float64, len(w.lay.decides))
	for i, d := range w.lay.decides {
		us[i] = float64(d) / 1e3
	}
	sort.Float64s(us)
	m["core.decide_us_p50"] = median(us)
	if len(us) > 0 {
		m["core.decide_us_max"] = us[len(us)-1]
	}
	m["core.decisions"] = div(float64(len(us)), float64(ok))
	m["core.converge_s"] = median(w.lay.converge)
	m["core.final_conns"] = median(w.lay.conns)
	m["core.final_threads_total"] = median(w.lay.threads)
	m["core.goodput_frac"] = median(w.lay.mbps) / wanLinkMbps
	rmax := env.TheoreticalMaxReward(w.tb.Bottleneck, w.tb.NStar, env.DefaultK)
	m["env.utility_frac"] = div(tr.hk.utility, float64(tr.hk.ticks)) / rmax

	r := w.sys.TrainResult
	m["rl.train_s"] = w.trainS
	m["rl.episodes"] = float64(r.Episodes)
	m["rl.episodes_per_s"] = div(float64(r.Episodes), w.trainS)
	m["rl.converged_at"] = float64(r.ConvergedAt)
	m["rl.best_reward_frac"] = div(r.BestReward, 10*w.sys.Profile.Rmax) // 10 steps per episode
}
