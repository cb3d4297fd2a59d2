package core

import (
	"automdt/internal/env"
	"automdt/internal/flight"
	"automdt/internal/metrics"
	"automdt/internal/sim"
)

// SimTransfer describes a finite transfer executed against the
// event-driven dynamics simulator under a pluggable controller. It is the
// deterministic, instant-turnaround counterpart of the live loopback
// engine, and is what regenerates the paper's figure traces (Fig. 3 and
// Fig. 5) without waiting out real seconds.
type SimTransfer struct {
	// Cfg is the ground-truth testbed (per-stream caps, bandwidths,
	// staging capacities).
	Cfg sim.Config
	// Controller drives the concurrency tuple each simulated second.
	Controller env.Controller
	// TotalMb is the dataset volume in megabits.
	TotalMb float64
	// MaxTicks caps the simulated duration in seconds (default 3600).
	MaxTicks int
	// InitialThreads is the starting concurrency (default 1).
	InitialThreads int
	// MaxThreads clamps controller decisions (default 32).
	MaxThreads int
	// OnTick, if non-nil, runs before each simulated second with the
	// 1-based tick index and the live simulator — the hook used to
	// inject mid-transfer condition changes (background traffic,
	// re-throttles) for adaptation experiments.
	OnTick func(tick int, s *sim.Simulator)
}

// SimTransferResult reports a simulated transfer.
type SimTransferResult struct {
	// Rec holds per-second traces: cc_read, cc_conns, cc_streams,
	// cc_write, cc_net (total network workers, conns·streams), thr_read,
	// thr_net, thr_write, thr_e2e.
	Rec *metrics.Recorder
	// Ticks is the simulated duration in seconds.
	Ticks int
	// Completed reports whether TotalMb was fully written within
	// MaxTicks.
	Completed bool
	// AvgMbps is the end-to-end goodput (TotalMb / Ticks) when
	// completed, or written/Ticks otherwise.
	AvgMbps float64
	// WrittenMb is the volume flushed to the destination store.
	WrittenMb float64
}

// Run executes the simulated transfer.
func (st *SimTransfer) Run() *SimTransferResult {
	maxTicks := st.MaxTicks
	if maxTicks <= 0 {
		maxTicks = 3600
	}
	maxThreads := st.MaxThreads
	if maxThreads <= 0 {
		maxThreads = 32
	}
	n := st.InitialThreads
	if n <= 0 {
		n = 1
	}
	// One data connection carrying n streams reproduces the legacy
	// single-socket starting point; the controller grows conns from there.
	act := env.ActionOf(n, 1, n, n)

	controller := st.Controller
	if controller != nil && flight.Active() {
		// Simulated runs trace like live ones, under a "sim:" source so a
		// dump distinguishes rehearsal decisions from production ones.
		controller = flight.WrapController(controller, flight.Default(), "sim:"+controller.Name())
	}

	s := sim.New(st.Cfg)
	rec := metrics.NewRecorder()
	written := 0.0
	ticks := 0
	for ticks < maxTicks && written < st.TotalMb {
		if st.OnTick != nil {
			st.OnTick(ticks+1, s)
		}
		res := s.Step(act.N[env.StageRead], act.N[env.StageConns], act.N[env.StageStreams], act.N[env.StageWrite])
		ticks++
		written += res.Throughput[sim.Write]
		t := float64(ticks)
		rec.Series("cc_read").Record(t, float64(act.N[env.StageRead]))
		rec.Series("cc_conns").Record(t, float64(act.N[env.StageConns]))
		rec.Series("cc_streams").Record(t, float64(act.N[env.StageStreams]))
		rec.Series("cc_net").Record(t, float64(act.NetWorkers()))
		rec.Series("cc_write").Record(t, float64(act.N[env.StageWrite]))
		rec.Series("thr_read").Record(t, res.Throughput[sim.Read])
		rec.Series("thr_net").Record(t, res.Throughput[sim.Network])
		rec.Series("thr_write").Record(t, res.Throughput[sim.Write])
		rec.Series("thr_e2e").Record(t, res.Throughput[sim.Write])

		if controller != nil {
			state := env.State{
				N: act.N,
				Throughput: env.ThroughputVec(
					res.Throughput[sim.Read], res.Throughput[sim.Network], res.Throughput[sim.Write]),
				SenderFree:   res.SenderBufFree,
				ReceiverFree: res.ReceiverBufFree,
			}
			act = controller.Decide(state).Clamp(maxThreads)
		}
	}
	out := &SimTransferResult{
		Rec:       rec,
		Ticks:     ticks,
		Completed: written >= st.TotalMb,
		WrittenMb: written,
	}
	if ticks > 0 {
		out.AvgMbps = written / float64(ticks)
	}
	return out
}
