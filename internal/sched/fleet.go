package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"automdt/internal/env"
	"automdt/internal/fleet"
	"automdt/internal/flight"
	"automdt/internal/fsim"
	"automdt/internal/metrics"
	"automdt/internal/transfer"
)

// FleetSource is the flight-recorder source for fleet placement events.
const FleetSource = "sched:fleet"

// FleetRunner executes every job attempt as a sender against a FLEET of
// shared multi-session receiver endpoints (Size 1 is the single shared
// endpoint), instead of spawning a private receiver per job the way
// LoopbackRunner does. Sessions are placed on endpoints by a
// consistent-hash ring with bounded loads (internal/fleet.Ring), endpoint
// liveness comes from a heartbeat registry (internal/fleet.Registry), and
// every endpoint shares one destination Store — which is what makes
// failover work: when an endpoint dies mid-transfer, the scheduler's
// ordinary retry re-runs the job with the same session ID, placement
// lands it on a live sibling, and the sibling finds the victim's ledger
// in the shared store, so the resumed session re-sends only the
// uncommitted tail.
//
// Job manifests must not write conflicting content to the same file
// names (synthetic content is name-derived, so same-named synthetic
// files agree by construction). Jobs carrying a DestDir are rejected:
// the fleet has one fixed destination store.
type FleetRunner struct {
	// Size is the number of endpoints to spawn (≤ 0 means 1).
	Size int
	// Receiver parameterizes every endpoint engine — notably MaxSessions
	// (per-endpoint admission cap) and WriteBudgetMbps (per-endpoint
	// write-stage fairness budget).
	Receiver transfer.Config
	// Store is the shared destination all endpoints serve. nil uses one
	// synthetic sink for the fleet's whole lifetime; because every
	// endpoint shares it, session ledgers are visible fleet-wide and
	// resumes work across endpoints.
	Store fsim.Store
	// Verify makes the default synthetic sink check written bytes
	// against the expected deterministic content.
	Verify bool
	// HeartbeatEvery is the endpoint heartbeat period (default 50 ms);
	// HeartbeatTTL is the registry liveness horizon (default 3×
	// HeartbeatEvery). An endpoint that dies turns registry-dead one TTL
	// after its last beat.
	HeartbeatEvery time.Duration
	HeartbeatTTL   time.Duration
	// Replicas and LoadFactor tune the placement ring; zero values take
	// the fleet package defaults (128 vnodes, c = 1.25).
	Replicas   int
	LoadFactor float64

	mu       sync.Mutex
	started  bool
	startErr error
	reg      *fleet.Registry
	ring     *fleet.Ring
	ringSeen int64 // registry epoch the ring last synced to
	eps      map[string]*fleetEndpoint
	order    []string // endpoint ids in spawn order
	sess     map[string]*sessTrack

	placements int64
	failovers  int64
}

// fleetEndpoint is one spawned receiver endpoint.
type fleetEndpoint struct {
	id     string
	recv   *transfer.Receiver
	cancel context.CancelFunc
	done   chan struct{} // closed when Serve returns (all sessions torn down)
	// closing is set from the moment the endpoint stops accepting: before
	// its serve loop is cancelled, or when a control dial to it is refused.
	// The listeners close well before done does (sessions tear down in
	// between), and placement must not hand the endpoint out in that window.
	closing atomic.Bool
}

// dead reports whether the endpoint has stopped accepting sessions.
func (ep *fleetEndpoint) dead() bool {
	if ep.closing.Load() {
		return true
	}
	select {
	case <-ep.done:
		return true
	default:
		return false
	}
}

// stop marks the endpoint unplaceable, then cancels its serve loop.
func (ep *fleetEndpoint) stop() {
	ep.closing.Store(true)
	ep.cancel()
}

// sessTrack remembers which endpoint last served a session and lets a
// failover retry wait for the previous attempt's receiver-side teardown
// (which persists the ledger) before the sibling loads it.
type sessTrack struct {
	epID string
	done chan struct{}
	once sync.Once
}

func (t *sessTrack) finish() { t.once.Do(func() { close(t.done) }) }

// start spawns the fleet lazily. Caller holds mu.
func (f *FleetRunner) start() error {
	if f.started {
		return f.startErr
	}
	f.started = true
	size := f.Size
	if size <= 0 {
		size = 1
	}
	every := f.HeartbeatEvery
	if every <= 0 {
		every = 50 * time.Millisecond
	}
	ttl := f.HeartbeatTTL
	if ttl <= 0 {
		ttl = 3 * every
	}
	if f.Store == nil {
		ss := fsim.NewSyntheticStore()
		ss.Verify = f.Verify
		f.Store = ss
	}
	f.reg = fleet.NewRegistry(ttl)
	f.ring = fleet.NewRing(f.Replicas, f.LoadFactor)
	f.eps = make(map[string]*fleetEndpoint, size)
	f.sess = make(map[string]*sessTrack)
	for i := 0; i < size; i++ {
		id := fmt.Sprintf("ep-%d", i)
		if err := f.spawn(id, every); err != nil {
			f.startErr = err
			return err
		}
	}
	f.ringSeen = -1 // force the first sync
	return nil
}

// spawn boots one endpoint: listen, serve, register, heartbeat. Caller
// holds mu.
func (f *FleetRunner) spawn(id string, every time.Duration) error {
	recv := transfer.NewReceiver(f.Receiver, f.Store)
	if err := recv.Listen("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		return fmt.Errorf("sched: fleet endpoint %s listen: %w", id, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ep := &fleetEndpoint{id: id, recv: recv, cancel: cancel, done: make(chan struct{})}
	recv.OnSessionDone = func(res transfer.SessionResult) { f.sessionDone(id, res) }
	f.eps[id] = ep
	f.order = append(f.order, id)
	f.reg.Register(fleet.EndpointInfo{ID: id, DataAddr: recv.DataAddr(), CtrlAddr: recv.CtrlAddr()})
	go func() {
		defer close(ep.done)
		recv.Serve(ctx)
	}()
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-ep.done:
				return
			case <-t.C:
				f.reg.Heartbeat(id) //nolint:errcheck
			}
		}
	}()
	return nil
}

// sessionDone is every endpoint's OnSessionDone hook: it releases the
// failover barrier for the attempt that just tore down. The epID guard
// keeps a late callback from a previous endpoint from releasing the
// current attempt's barrier.
func (f *FleetRunner) sessionDone(epID string, res transfer.SessionResult) {
	f.mu.Lock()
	tr := f.sess[res.SessionID]
	f.mu.Unlock()
	if tr != nil && tr.epID == epID {
		tr.finish()
	}
}

// syncRingLocked reconciles ring membership with registry liveness when
// the membership epoch moved. Caller holds mu.
func (f *FleetRunner) syncRingLocked() {
	epoch := f.reg.Epoch()
	if epoch == f.ringSeen {
		return
	}
	f.ringSeen = epoch
	live := make(map[string]bool)
	for _, info := range f.reg.Live() {
		live[info.ID] = true
	}
	for _, id := range f.ring.Members() {
		if !live[id] {
			f.ring.Remove(id)
		}
	}
	for id := range live {
		f.ring.Add(id)
	}
}

// place acquires a live endpoint for the session. The registry drives
// membership; the in-process dead() check additionally catches endpoints
// that stopped accepting but whose heartbeat TTL has not lapsed yet, so
// a retry never routes to a corpse just because the registry is a
// heartbeat behind.
func (f *FleetRunner) place(session string) (*fleetEndpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncRingLocked()
	for {
		id, err := f.ring.Acquire(session)
		if err != nil {
			// A heartbeat flap (an overloaded endpoint missing its TTL,
			// then reviving) can transiently drain the registry-driven
			// ring even though endpoints are demonstrably alive in this
			// process. Routing to nothing while live endpoints exist is
			// strictly worse than routing past a stale registry view, so
			// fall back to in-process ground truth before failing.
			revived := false
			for eid, ep := range f.eps {
				if !ep.dead() {
					f.ring.Add(eid)
					revived = true
				}
			}
			if !revived {
				return nil, fmt.Errorf("sched: fleet placement for session %s: %w", session, err)
			}
			continue
		}
		ep := f.eps[id]
		if ep == nil || ep.dead() {
			f.ring.Release(id)
			f.ring.Remove(id)
			continue
		}
		f.placements++
		return ep, nil
	}
}

// Run implements Runner: place the session on a live endpoint, wait out
// the previous attempt's teardown if placement moved (failover), and run
// one sender session against the chosen endpoint. An endpoint can stop
// accepting between placement and the control dial; that refused dial
// negotiated nothing, so Run marks the endpoint dead and re-places here
// instead of spending one of the scheduler's attempts on it.
func (f *FleetRunner) Run(ctx context.Context, spec JobSpec, ctrl env.Controller) (*transfer.Result, error) {
	if spec.DestDir != "" {
		return nil, errors.New("sched: fleet runner has a fixed shared destination; DestDir is not supported")
	}
	f.mu.Lock()
	err := f.start()
	f.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("sched: start fleet: %w", err)
	}
	session := spec.Transfer.SessionID
	negotiated := false
	onSession := spec.Transfer.Hooks.OnSession
	spec.Transfer.Hooks.OnSession = func(s transfer.Session) {
		negotiated = true
		if onSession != nil {
			onSession(s)
		}
	}
	for refused := 0; ; refused++ {
		f.mu.Lock()
		prev := f.sess[session]
		f.mu.Unlock()
		ep, res, err := f.runOnce(ctx, spec, ctrl, prev)
		if ep == nil || negotiated || refused >= len(f.order) || !errors.Is(err, syscall.ECONNREFUSED) {
			return res, err
		}
		ep.closing.Store(true)
		f.mu.Lock()
		if prev == nil {
			delete(f.sess, session)
		} else {
			f.sess[session] = prev
		}
		f.mu.Unlock()
	}
}

// runOnce places the session and runs one sender against the endpoint
// it got, which it returns (nil when placement itself failed). prev is
// the track of the session's previous attempt, if any.
func (f *FleetRunner) runOnce(ctx context.Context, spec JobSpec, ctrl env.Controller, prev *sessTrack) (*fleetEndpoint, *transfer.Result, error) {
	session := spec.Transfer.SessionID
	ep, err := f.place(session)
	if err != nil {
		return nil, nil, err
	}
	defer f.ring.Release(ep.id)

	f.mu.Lock()
	var prevEp *fleetEndpoint
	if prev != nil {
		prevEp = f.eps[prev.epID]
	}
	moved := prev != nil && prev.epID != ep.id
	if moved {
		f.failovers++
	}
	f.mu.Unlock()

	if moved {
		// Failover barrier: the sibling must not load the ledger while
		// the victim's session teardown is still persisting it. Teardown
		// ends either with the session's OnSessionDone or with the whole
		// endpoint's serve loop exiting; the cap covers attempts that
		// died sender-side before the receiver ever admitted them.
		var prevDone chan struct{}
		if prevEp != nil {
			prevDone = prevEp.done
		}
		cap := time.NewTimer(3 * time.Second)
		select {
		case <-prev.done:
		case <-prevDone:
		case <-cap.C:
		case <-ctx.Done():
			cap.Stop()
			return ep, nil, ctx.Err()
		}
		cap.Stop()
	}
	if flight.Active() {
		if moved {
			flight.Record(flight.Event{
				UnixNano: time.Now().UnixNano(),
				Source:   FleetSource,
				Kind:     flight.KindReplace,
				Chosen:   flight.Alt{Label: ep.id},
				Alts:     []flight.Alt{{Label: prev.epID, Score: -1}},
				Note:     fmt.Sprintf("session=%s victim=%s successor=%s", session, prev.epID, ep.id),
			})
		} else if prev == nil {
			flight.Record(flight.Event{
				UnixNano: time.Now().UnixNano(),
				Source:   FleetSource,
				Kind:     flight.KindPlace,
				Chosen:   flight.Alt{Label: ep.id},
				Note:     fmt.Sprintf("session=%s endpoint=%s", session, ep.id),
			})
		}
	}

	f.mu.Lock()
	f.sess[session] = &sessTrack{epID: ep.id, done: make(chan struct{})}
	f.mu.Unlock()

	src := fsim.NewSyntheticStore()
	send := &transfer.Sender{Cfg: spec.Transfer, Store: src, Manifest: spec.Manifest, Controller: ctrl}
	res, err := send.Run(ctx, ep.recv.DataAddr(), ep.recv.CtrlAddr())
	return ep, res, err
}

// Endpoints returns every endpoint's registration info in spawn order,
// starting the fleet if necessary.
func (f *FleetRunner) Endpoints() ([]fleet.EndpointInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.start(); err != nil {
		return nil, err
	}
	out := make([]fleet.EndpointInfo, 0, len(f.order))
	for _, id := range f.order {
		ep := f.eps[id]
		out = append(out, fleet.EndpointInfo{ID: id, DataAddr: ep.recv.DataAddr(), CtrlAddr: ep.recv.CtrlAddr()})
	}
	return out, nil
}

// EndpointOf reports which endpoint last served the session ("" if the
// session is unknown).
func (f *FleetRunner) EndpointOf(session string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if tr := f.sess[session]; tr != nil {
		return tr.epID
	}
	return ""
}

// KillEndpoint cancels one endpoint's serve loop and waits for its
// teardown — the fault the failover battery injects. The endpoint stays
// registered, so its registry liveness decays through the genuine
// missed-heartbeat path rather than an explicit deregister.
func (f *FleetRunner) KillEndpoint(id string) error {
	f.mu.Lock()
	ep := f.eps[id]
	f.mu.Unlock()
	if ep == nil {
		return fmt.Errorf("sched: fleet has no endpoint %q", id)
	}
	ep.stop()
	<-ep.done
	return nil
}

// EndpointStatus is one endpoint's row in FleetStatus.
type EndpointStatus struct {
	fleet.EndpointInfo
	Live     bool `json:"live"`
	Sessions int  `json:"sessions"`
}

// FleetStatus is the /v1/fleet response: membership, liveness, and
// placement counters.
type FleetStatus struct {
	Size       int              `json:"size"`
	Epoch      int64            `json:"epoch"`
	Placements int64            `json:"placements"`
	Failovers  int64            `json:"failovers"`
	Endpoints  []EndpointStatus `json:"endpoints"`
}

// Status reports fleet membership and placement counters, starting the
// fleet if necessary.
func (f *FleetRunner) Status() FleetStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.start(); err != nil {
		return FleetStatus{}
	}
	live := make(map[string]bool)
	for _, info := range f.reg.Live() {
		live[info.ID] = true
	}
	loads := f.ring.Loads()
	st := FleetStatus{
		Size:       len(f.order),
		Epoch:      f.reg.Epoch(),
		Placements: f.placements,
		Failovers:  f.failovers,
	}
	for _, id := range f.order {
		ep := f.eps[id]
		st.Endpoints = append(st.Endpoints, EndpointStatus{
			EndpointInfo: fleet.EndpointInfo{ID: id, DataAddr: ep.recv.DataAddr(), CtrlAddr: ep.recv.CtrlAddr()},
			Live:         live[id] && !ep.dead(),
			Sessions:     loads[id],
		})
	}
	return st
}

// Snapshot exports the fleet gauges (automdt_fleet_*) plus every
// endpoint's automdt_endpoint_* gauges. A single-endpoint fleet emits
// the receiver samples unlabeled, while a real fleet adds an endpoint
// label so per-endpoint series don't collide.
func (f *FleetRunner) Snapshot() metrics.Snapshot {
	f.mu.Lock()
	if !f.started || f.startErr != nil {
		f.mu.Unlock()
		return metrics.Snapshot{}
	}
	eps := make([]*fleetEndpoint, 0, len(f.order))
	for _, id := range f.order {
		eps = append(eps, f.eps[id])
	}
	placements, failovers := f.placements, f.failovers
	reg, ring := f.reg, f.ring
	f.mu.Unlock()

	var snap metrics.Snapshot
	snap.Merge(reg.Snapshot())
	snap.Add("automdt_fleet_placements_total", float64(placements))
	snap.Add("automdt_fleet_failovers_total", float64(failovers))
	loads := ring.Loads()
	ids := make([]string, 0, len(loads))
	for id := range loads {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		snap.Add("automdt_fleet_endpoint_sessions_active", float64(loads[id]), metrics.L("endpoint", id))
	}
	for _, ep := range eps {
		rs := ep.recv.MetricsSnapshot()
		if len(eps) == 1 {
			snap.Merge(rs)
			continue
		}
		for _, s := range rs.Samples() {
			labels := make([]metrics.Label, 0, len(s.Labels)+1)
			labels = append(labels, s.Labels...)
			labels = append(labels, metrics.L("endpoint", ep.id))
			snap.Add(s.Name, s.Value, labels...)
		}
	}
	return snap
}

// Close shuts every endpoint down and waits for their sessions to tear
// down. Safe to call before any job ran.
func (f *FleetRunner) Close() {
	f.mu.Lock()
	eps := make([]*fleetEndpoint, 0, len(f.order))
	for _, id := range f.order {
		eps = append(eps, f.eps[id])
	}
	f.mu.Unlock()
	for _, ep := range eps {
		ep.stop()
	}
	for _, ep := range eps {
		<-ep.done
	}
}
