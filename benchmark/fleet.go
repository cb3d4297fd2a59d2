package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"automdt/internal/fsim"
	"automdt/internal/sched"
	"automdt/internal/transfer"
	"automdt/internal/workload"
)

// fleetWorkload is fleet_jobs: two closed-loop clients each Submit a
// one-chunk job to a scheduler in front of a three-endpoint receiver
// fleet and Wait for it. The control plane does the work.
type fleetWorkload struct {
	seed  int64
	smoke bool

	store  *fsim.SyntheticStore // the fleet's shared, verifying destination
	dest   *destStore
	runner *sched.FleetRunner
	sch    *sched.Scheduler
	arena  *transfer.Arena
	jobN   atomic.Int64

	traces sync.Map // session → *opTrace, while a traced job is open
	lay    fleetLayers
}

// fleetLayers is what a phase's jobs report about the scheduler.
type fleetLayers struct {
	mu                            sync.Mutex
	submitUs, queueMs, overheadMs []float64
	placements, failovers         int64 // FleetRunner.Status() deltas over the phase
}

const (
	fleetClients  = 2 // never more client goroutines than nproc
	fleetJobBytes = 256 << 10
	fleetWarmJobs = 50
)

// sessionOfFile maps a job's file name back to its session id: each job's
// one file is named "<session>.dat".
func sessionOfFile(name string) string { return strings.TrimSuffix(name, ".dat") }

func newFleetJobs(seed int64, smoke bool) *fleetWorkload {
	return &fleetWorkload{seed: seed, smoke: smoke}
}

func (w *fleetWorkload) tailPct() float64         { return 0.95 } // ≈950 jobs a block: 47 beyond it
func (w *fleetWorkload) arenaOf() *transfer.Arena { return w.arena }
func (w *fleetWorkload) clients() int             { return fleetClients }

func (w *fleetWorkload) setup() error {
	w.store = fsim.NewSyntheticStore()
	w.store.Verify = true
	// The wrapper is always in place and passes straight through for a
	// session that is not being traced.
	w.dest = &destStore{inner: w.store, opOf: func(name string) *opTrace {
		if ot, ok := w.traces.Load(sessionOfFile(name)); ok {
			return ot.(*opTrace)
		}
		return nil
	}}
	w.arena = transfer.NewArena(transfer.DefaultArenaBytes)
	w.runner = &sched.FleetRunner{Size: 3, Store: w.dest}
	var err error
	w.sch, err = sched.New(sched.Config{
		Budget:    [4]int{16, 8, 16, 16},
		MaxActive: 2,
		Runner:    w.runner,
		Arena:     w.arena,
	})
	if err != nil {
		return err
	}
	warm := newPhase(1, false, w.arena)
	jobs := fleetWarmJobs
	if w.smoke {
		jobs = 2
	}
	for i := 0; i < jobs; i++ {
		if s := w.job(warm); s.failed {
			return fmt.Errorf("fleet_jobs: warm-up job: %s", s.err)
		}
	}
	return nil
}

func (w *fleetWorkload) teardown() error {
	w.sch.Close()
	w.runner.Close()
	if errs := w.store.Errors(); len(errs) > 0 {
		return fmt.Errorf("fleet_jobs: destination saw %d corrupt writes, first: %v", len(errs), errs[0])
	}
	return nil
}

func (w *fleetWorkload) run(ph *phase, budget time.Duration) {
	w.lay = fleetLayers{}
	st0 := w.runner.Status()
	// One block at a time: both clients stop at the block's deadline and
	// are waited for, so a block's ops and measured time are its own.
	for b := 0; b < phaseBlocks; b++ {
		deadline := time.Now().Add(budget / phaseBlocks)
		var wg sync.WaitGroup
		ph.resume()
		for c := 0; c < fleetClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; time.Now().Before(deadline) && (ph.maxOps == 0 || n < ph.maxOps); n++ {
					ph.add(w.job(ph))
				}
			}()
		}
		wg.Wait()
		ph.suspend()
		ph.cut()
	}
	st1 := w.runner.Status()
	w.lay.placements = st1.Placements - st0.Placements
	w.lay.failovers = st1.Failovers - st0.Failovers
}

// job is one Submit → Wait.
func (w *fleetWorkload) job(ph *phase) opSample {
	n := w.jobN.Add(1)
	session := fmt.Sprintf("fj-s%d-%d", w.seed, n)
	spec := sched.JobSpec{
		Name:     session,
		Manifest: workload.Manifest{{Name: session + ".dat", Size: fleetJobBytes}},
		Transfer: transfer.Config{ProbeInterval: 25 * time.Millisecond, SessionID: session},
	}
	s := opSample{bytes: fleetJobBytes, files: 1}
	hk := newOpHooks(ph)
	spec.Transfer.Hooks = hk.hooks()
	var ot *opTrace
	endRoot := func() {}
	if ph.tr != nil {
		ot = &opTrace{t: ph.tr, c: ph.c, op: session}
		w.traces.Store(session, ot)
		defer w.traces.Delete(session)
		spec.Transfer.WrapConn = ot.wrapConn
		endRoot = ph.tr.begin(session)
	}
	t0 := time.Now()
	id, err := w.sch.Submit(spec)
	submitted := time.Now()
	var st sched.JobStatus
	if err == nil {
		st, err = w.sch.Wait(context.Background(), id)
	}
	t1 := time.Now()
	s.wall = t1.Sub(t0)
	hk.close(t0, t1, ot, nil)
	endRoot()
	switch {
	case err != nil:
		s.failed, s.err = true, err.Error()
	case st.State != "done":
		s.failed, s.err = true, fmt.Sprintf("job %d ended %s: %s", id, st.State, st.Error)
	case w.store.WrittenBytes(session+".dat") != fleetJobBytes:
		s.failed, s.err = true, fmt.Sprintf("job %d: destination holds %d of %d bytes", id, w.store.WrittenBytes(session+".dat"), fleetJobBytes)
	default:
		w.lay.mu.Lock()
		w.lay.submitUs = append(w.lay.submitUs, float64(submitted.Sub(t0))/1e3)
		w.lay.queueMs = append(w.lay.queueMs, float64(st.Started.Sub(st.Submitted))/1e6)
		w.lay.overheadMs = append(w.lay.overheadMs, float64(st.Finished.Sub(st.Started))/1e6-st.Seconds*1e3)
		w.lay.mu.Unlock()
	}
	return s
}

func (w *fleetWorkload) extraLayers(m map[string]float64, tr *phase) {
	ok, _, _, _, _ := tr.totals()
	m["sched.submit_us_p50"] = median(w.lay.submitUs)
	m["sched.queue_wait_ms_p50"] = median(w.lay.queueMs)
	m["sched.run_overhead_ms_p50"] = median(w.lay.overheadMs)
	m["sched.run_overhead_ms_p99"] = percentile(w.lay.overheadMs, 0.99)
	m["fleet.placements"] = div(float64(w.lay.placements), float64(ok))
	m["fleet.failovers"] = div(float64(w.lay.failovers), float64(ok))

	// Completed sessions per endpoint, from the fleet's own metrics.
	var per []float64
	for _, s := range w.runner.Snapshot().Samples() {
		if s.Name != "automdt_endpoint_sessions_total" {
			continue
		}
		completed, ep := false, false
		for _, l := range s.Labels {
			completed = completed || (l.Key == "event" && l.Value == "completed")
			ep = ep || (l.Key == "endpoint" && strings.HasPrefix(l.Value, "ep-"))
		}
		if completed && ep {
			per = append(per, s.Value)
		}
	}
	hi := 0.0
	for _, v := range per {
		hi = max(hi, v)
	}
	m["fleet.placement_imbalance"] = div(hi, mean(per))
}
