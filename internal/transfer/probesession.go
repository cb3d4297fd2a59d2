package transfer

import (
	"context"
	"fmt"
	"sync"
	"time"

	"automdt/internal/env"
	"automdt/internal/fsim"
	"automdt/internal/workload"
)

// ProbeSession drives the live engine as a probe.Runner: it starts an
// open-ended transfer over loopback (or any receiver) and lets callers
// measure the per-stage throughput of arbitrary concurrency tuples — the
// §IV-A exploration-and-logging phase executed against the real data
// path instead of the simulator.
type ProbeSession struct {
	interval time.Duration
	ctrl     *probeController
	cancel   context.CancelFunc
	done     chan struct{}
	err      error
	mu       sync.Mutex
}

// probeController pins the engine to an externally requested tuple and
// records the latest observed state.
type probeController struct {
	mu   sync.Mutex
	want env.Action
	last env.State
	seen int
	// decided is closed and replaced by every Decide, waking Probe.
	decided chan struct{}
}

func (p *probeController) Name() string { return "probe" }

func (p *probeController) Decide(s env.State) env.Action {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.last = s
	p.seen++
	close(p.decided)
	p.decided = make(chan struct{})
	return p.want
}

// set applies a tuple and returns how many decisions preceded it.
func (p *probeController) set(a env.Action) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.want = a
	return p.seen
}

// state returns the latest observation, the decision count, and a
// channel the next decision closes.
func (p *probeController) state() (env.State, int, <-chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last, p.seen, p.decided
}

// NewProbeSession starts a loopback probe transfer: a synthetic source
// large enough to outlast the exploration run, a synthetic sink, and the
// given engine configuration (whose Shaping defines the emulated path).
// Close the session when profiling is done.
func NewProbeSession(ctx context.Context, cfg Config) (*ProbeSession, error) {
	cfg = cfg.WithDefaults()
	src := fsim.NewSyntheticStore()
	dst := fsim.NewSyntheticStore()
	// An effectively endless dataset: probing stops long before this.
	manifest := workload.LargeFiles(1024, 1<<30)

	ctx, cancel := context.WithCancel(ctx)
	pc := &probeController{want: env.ActionOf(1, 1, 1, 1), decided: make(chan struct{})}
	ps := &ProbeSession{
		interval: cfg.ProbeInterval,
		ctrl:     pc,
		cancel:   cancel,
		done:     make(chan struct{}),
	}
	recv := NewReceiver(cfg, dst)
	if err := recv.Listen("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		cancel()
		return nil, err
	}
	go func() { recv.Serve(ctx) }()
	send := &Sender{Cfg: cfg, Store: src, Manifest: manifest, Controller: pc}
	go func() {
		defer close(ps.done)
		_, err := send.Run(ctx, recv.DataAddr(), recv.CtrlAddr())
		if err != nil && ctx.Err() == nil {
			ps.mu.Lock()
			ps.err = err
			ps.mu.Unlock()
		}
	}()
	return ps, nil
}

// Probe implements probe.Runner: apply the stage tuple, wait for the
// engine to settle, and report the measured physical stage rates in
// Mbps. It returns at the third decision after the tuple is applied —
// the first may still observe the old tuple, so two fresh observations
// follow it — or after ten probe intervals if the engine stalls.
func (ps *ProbeSession) Probe(a env.Action) (tr, tn, tw float64) {
	before := ps.ctrl.set(a)
	deadline := time.NewTimer(10 * ps.interval)
	defer deadline.Stop()
	st, seen, next := ps.ctrl.state()
	for timedOut := false; seen < before+3 && !timedOut; st, seen, next = ps.ctrl.state() {
		select {
		case <-next:
		case <-deadline.C:
			timedOut = true
		}
	}
	return st.Throughput[env.StageRead], st.Throughput[env.StageConns], st.Throughput[env.StageWrite]
}

// Err returns a fatal engine error, if any occurred.
func (ps *ProbeSession) Err() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.err
}

// Close terminates the probe transfer and waits for the engine to wind
// down.
func (ps *ProbeSession) Close() error {
	ps.cancel()
	select {
	case <-ps.done:
	case <-time.After(5 * time.Second):
		return fmt.Errorf("transfer: probe session did not shut down in time")
	}
	return ps.Err()
}
