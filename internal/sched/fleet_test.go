package sched

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"automdt/internal/env"
	"automdt/internal/flight"
	"automdt/internal/fsim"
	"automdt/internal/transfer"
	"automdt/internal/workload"
)

// placedEndpoints turns the process-wide flight recorder on for the test
// and returns a lookup of the endpoint that each session's last
// placement chose, read from the fleet's place and replace events. That
// is how a test learns where a finished session ran: the runner forgets
// a session once it succeeds.
func placedEndpoints(t *testing.T) func(session string) string {
	t.Helper()
	flight.Enable(0)
	t.Cleanup(func() {
		flight.Default().Disable()
		flight.Default().Reset()
	})
	return func(session string) string {
		ep := ""
		for _, ev := range flight.Default().Dump(FleetSource, 0) {
			if strings.HasPrefix(ev.Note, "session="+session+" ") {
				ep = ev.Chosen.Label
			}
		}
		return ep
	}
}

// TestFleetForgetsFinishedSessions: a session's failover track lives only
// until the session succeeds, so a long-running daemon's runner does not
// grow with every job it has ever run.
func TestFleetForgetsFinishedSessions(t *testing.T) {
	fr := &FleetRunner{Size: 3}
	defer fr.Close()
	const jobs, workers = 10000, 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < jobs; i += workers {
				spec := JobSpec{Manifest: workload.LargeFiles(1, 4<<10)}
				spec.Transfer.SessionID = fmt.Sprintf("forget-%d", i)
				if _, err := fr.Run(context.Background(), spec, nil); err != nil {
					errs <- fmt.Errorf("job %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	fr.mu.Lock()
	n := len(fr.sess)
	fr.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d session tracks left after %d successful jobs, want 0", n, jobs)
	}
}

// A Size-1 fleet is the single shared endpoint: every job lands on one
// multi-session receiver and its gauges ride the scheduler snapshot
// unlabeled.
func TestFleetSizeOneSharesOneReceiver(t *testing.T) {
	fr := &FleetRunner{Size: 1, Verify: true}
	defer fr.Close()
	s, err := New(Config{
		Budget:    [env.StageCount]int{8, 8, 8, 8},
		MaxActive: 4,
		Runner:    fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const jobs = 4
	ids := make([]int64, jobs)
	for i := range ids {
		id, err := s.Submit(JobSpec{
			Name:     "tenant",
			Manifest: workload.LargeFiles(2, 512<<10),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "done" {
			t.Fatalf("job %d: state %s (%s)", id, st.State, st.Error)
		}
	}

	// A job is done when its sender has the final Status; the endpoint
	// counts the session only after that send, so wait for its
	// bookkeeping rather than racing it.
	want := []string{
		`automdt_endpoint_sessions_total{event="completed"} 4`,
		"automdt_endpoint_sessions_active 0",
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		text := s.Snapshot().Text()
		if strings.Contains(text, want[0]) && strings.Contains(text, want[1]) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheduler snapshot never showed %q:\n%s", want, text)
		}
	}

}

// TestFleetRunnerSpreadsSessions drives jobs through a 3-endpoint fleet
// and asserts the control-plane surface: sessions complete, placement
// gauges appear endpoint-labeled, and Status reports the membership.
func TestFleetRunnerSpreadsSessions(t *testing.T) {
	fr := &FleetRunner{Size: 3, Verify: true}
	defer fr.Close()
	s, err := New(Config{
		Budget:    [env.StageCount]int{16, 16, 16, 16},
		MaxActive: 8,
		Runner:    fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const jobs = 12
	ids := make([]int64, jobs)
	for i := range ids {
		id, err := s.Submit(JobSpec{Name: "spread", Manifest: workload.LargeFiles(2, 256<<10)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "done" {
			t.Fatalf("job %d: state %s (%s)", id, st.State, st.Error)
		}
	}

	st := fr.Status()
	if st.Size != 3 || len(st.Endpoints) != 3 {
		t.Fatalf("fleet status size = %d endpoints = %d, want 3", st.Size, len(st.Endpoints))
	}
	for _, ep := range st.Endpoints {
		if !ep.Live {
			t.Fatalf("endpoint %s not live in healthy fleet: %+v", ep.ID, st)
		}
	}
	if st.Placements < jobs {
		t.Fatalf("placements = %d, want ≥ %d", st.Placements, jobs)
	}
	if st.Failovers != 0 {
		t.Fatalf("failovers = %d in healthy fleet", st.Failovers)
	}

	text := s.Snapshot().Text()
	for _, want := range []string{
		`automdt_fleet_endpoints{state="live"} 3`,
		"automdt_fleet_placements_total",
		"automdt_fleet_failovers_total 0",
		`automdt_endpoint_sessions_total{event="completed",endpoint="ep-`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scheduler snapshot missing %q:\n%s", want, text)
		}
	}
}

// TestFleetFailoverResumesOnSibling is the fleet failover e2e: three
// endpoints, a batch of in-flight transfers, one endpoint killed
// mid-transfer. Every victim session must complete on a sibling
// byte-correct, re-sending less than 10% of the bytes it had committed
// before the kill (the sibling inherits the victim's ledger through the
// shared store), with zero arena-lease leaks.
func TestFleetFailoverResumesOnSibling(t *testing.T) {
	arena := transfer.NewArena(512 << 20)
	store := fsim.NewSyntheticStore()
	store.Verify = true
	fr := &FleetRunner{
		Size:     3,
		Store:    store,
		Receiver: transfer.Config{Arena: arena},
	}
	endpointOf := placedEndpoints(t)
	s, err := New(Config{
		Budget:    [env.StageCount]int{16, 16, 16, 16},
		MaxActive: 8,
		Runner:    fr,
	})
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 6
	const fileBytes = 2 << 20
	const filesPer = 4
	const totalPer = int64(filesPer * fileBytes)
	ids := make([]int64, jobs)
	for i := range ids {
		id, err := s.Submit(JobSpec{
			Name:       "victim-batch",
			Manifest:   workload.LargeFiles(filesPer, fileBytes),
			MaxRetries: 4,
			Transfer: transfer.Config{
				ChunkBytes:     128 << 10,
				InitialThreads: 2,
				MaxThreads:     4,
				ProbeInterval:  25 * time.Millisecond,
				Arena:          arena,
				Shaping:        transfer.Shaping{LinkMbps: 80},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	// Wait for real progress, then pick the endpoint serving a session
	// that is demonstrably mid-transfer as the victim.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var victim string
	deadline := time.Now().Add(30 * time.Second)
	for victim == "" {
		if time.Now().After(deadline) {
			t.Fatal("no session reached mid-transfer progress before deadline")
		}
		for _, id := range ids {
			st, err := s.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State == "running" && st.CommittedBytes >= totalPer/8 && st.CommittedBytes < totalPer/2 {
				if ep := fr.EndpointOf(st.SessionID); ep != "" {
					victim = ep
					break
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Record what every victim-hosted session had committed before the
	// kill: the resume assertion is measured against this floor.
	committedBefore := make(map[int64]int64)
	for _, id := range ids {
		st, _ := s.Status(id)
		if st.State == "running" && st.CommittedBytes < totalPer &&
			fr.EndpointOf(st.SessionID) == victim {
			committedBefore[id] = st.CommittedBytes
		}
	}
	if len(committedBefore) == 0 {
		t.Fatalf("victim %s hosts no running sessions", victim)
	}
	if err := fr.KillEndpoint(victim); err != nil {
		t.Fatal(err)
	}
	// The endpoint reports its own death: the moment the kill returns,
	// the status surfaces show the victim dead and both siblings live.
	live := 0
	for _, ep := range fr.Status().Endpoints {
		if ep.Live {
			live++
		}
		if ep.ID == victim && ep.Live {
			t.Fatalf("victim %s still live after KillEndpoint returned", victim)
		}
	}
	if live != 2 {
		t.Fatalf("%d live endpoints after killing %s, want 2", live, victim)
	}
	text := s.Snapshot().Text()
	for _, want := range []string{
		`automdt_fleet_endpoints{state="live"} 2`,
		`automdt_fleet_endpoints{state="dead"} 1`,
		"automdt_fleet_heartbeat_expirations_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("snapshot right after the kill missing %q:\n%s", want, text)
		}
	}

	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "done" {
			t.Fatalf("job %d: state %s (%s)", id, st.State, st.Error)
		}
	}

	// Victim sessions resumed on a live sibling, inheriting ≥90% of what
	// they had committed before the kill (<10% re-sent). A victim job
	// can legitimately dodge the failover by finishing in the window
	// between the progress sample and the kill (Resumes stays 0 and it
	// never moves); the resumed ones carry the assertions, and at least
	// one must exist for the test to have exercised anything.
	resumed := 0
	for id, before := range committedBefore {
		st, _ := s.Status(id)
		if st.Resumes < 1 {
			continue
		}
		resumed++
		if ep := endpointOf(st.SessionID); ep == victim || ep == "" {
			t.Errorf("victim job %d finished on %q, want a live sibling of %s", id, ep, victim)
		}
		if before > 0 {
			floor := before - before/10
			if st.SkippedBytes < floor {
				t.Errorf("victim job %d: inherited %d of %d pre-kill committed bytes, want ≥ %d (<10%% re-sent)",
					id, st.SkippedBytes, before, floor)
			}
		}
	}
	if resumed == 0 {
		for id, before := range committedBefore {
			st, _ := s.Status(id)
			t.Logf("victim job %d: before=%d state=%s attempts=%d resumes=%d skipped=%d committed=%d endpoint=%s err=%q",
				id, before, st.State, st.Attempts, st.Resumes, st.SkippedBytes, st.CommittedBytes,
				endpointOf(st.SessionID), st.Error)
		}
		t.Fatal("no victim session resumed: the kill landed after every victim session finished")
	}

	if st := fr.Status(); st.Failovers < 1 {
		t.Fatalf("fleet failovers = %d, want ≥ 1", st.Failovers)
	}

	// Byte-correctness and leak discipline: the shared verified store saw
	// no bad writes, and every arena lease is back after teardown.
	s.Close()
	fr.Close()
	if errs := store.Errors(); len(errs) > 0 {
		t.Fatalf("shared store verification errors: %v", errs)
	}
	if inUse := arena.Stats().InUseBytes; inUse != 0 {
		t.Fatalf("arena leaks %d bytes after fleet teardown", inUse)
	}
}

// TestFleetRefusedDialReplaces holds open the window the failover e2e used
// to lose one run in five to: an endpoint whose listeners are closed but
// whose serve loop has not been seen to exit. A Run placed on it must mark
// it dead on the refused control dial and finish on a sibling inside the
// same call — the scheduler never sees a failed attempt.
func TestFleetRefusedDialReplaces(t *testing.T) {
	fr := &FleetRunner{Size: 3, Verify: true}
	defer fr.Close()
	endpointOf := placedEndpoints(t)
	if _, err := fr.Endpoints(); err != nil {
		t.Fatal(err)
	}
	const victim = "ep-1"
	session := ""
	for i := 0; session == ""; i++ {
		id := "refused-" + strconv.Itoa(i)
		ep, err := fr.place(id)
		if err != nil {
			t.Fatal(err)
		}
		fr.ring.Release(ep.id)
		if ep.id == victim {
			session = id
		}
	}
	// Swap the victim for an endpoint in exactly that state: a receiver
	// that listened and shut down (so both addresses refuse), with done
	// still open and closing not yet set.
	gone := transfer.NewReceiver(transfer.Config{}, fr.Store)
	if err := gone.Listen("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	gone.Serve(cancelled) //nolint:errcheck // returns ctx.Err() after closing the listeners
	zombie := &fleetEndpoint{id: victim, recv: gone, cancel: func() {}, done: make(chan struct{})}
	defer close(zombie.done) // runs before fr.Close, which waits on it
	fr.mu.Lock()
	real := fr.eps[victim]
	fr.eps[victim] = zombie
	fr.mu.Unlock()
	real.stop()
	<-real.done

	ctx, stop := context.WithTimeout(context.Background(), 30*time.Second)
	defer stop()
	spec := JobSpec{Manifest: workload.LargeFiles(1, 256<<10)}
	spec.Transfer.SessionID = session
	res, err := fr.Run(ctx, spec, nil)
	if err != nil {
		t.Fatalf("Run placed on an endpoint that refuses: %v", err)
	}
	if res.Bytes != 256<<10 {
		t.Fatalf("transferred %d bytes, want %d", res.Bytes, 256<<10)
	}
	if got := endpointOf(session); got == victim || got == "" {
		t.Fatalf("session finished on %q, want a sibling of %s", got, victim)
	}
	st := fr.Status()
	if st.Failovers != 0 {
		t.Fatalf("failovers = %d: a refused dial negotiated nothing and is not a failover", st.Failovers)
	}
	for _, ep := range st.Endpoints {
		if ep.Live == (ep.ID == victim) {
			t.Fatalf("endpoint %s live=%v after the refused dial: %+v", ep.ID, ep.Live, st)
		}
	}
}

// TestFleetWriteBudgetFairness is the fairness regression: a two-endpoint
// fleet with a per-endpoint write budget serves one greedy high-priority
// high-thread session alongside meek single-thread siblings. The
// arbiter's equal split must keep every meek session's goodput above a
// floor — without it the greedy session's thread count would decide the
// division of the write stage.
func TestFleetWriteBudgetFairness(t *testing.T) {
	fr := &FleetRunner{
		Size:     2,
		Verify:   true,
		Receiver: transfer.Config{WriteBudgetMbps: 200},
	}
	defer fr.Close()
	s, err := New(Config{
		Budget:    [env.StageCount]int{32, 32, 32, 32},
		MaxActive: 8,
		Runner:    fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	greedy, err := s.Submit(JobSpec{
		Name:     "greedy",
		Priority: 8,
		Manifest: workload.LargeFiles(4, 4<<20),
		Transfer: transfer.Config{InitialThreads: 8, MaxThreads: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	const meeks = 6
	meekIDs := make([]int64, meeks)
	for i := range meekIDs {
		id, err := s.Submit(JobSpec{
			Name:     "meek",
			Priority: 1,
			Manifest: workload.LargeFiles(1, 2<<20),
			Transfer: transfer.Config{InitialThreads: 1, MaxThreads: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		meekIDs[i] = id
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	gst, err := s.Status(greedy)
	if err != nil {
		t.Fatal(err)
	}
	if gst.State != "done" {
		t.Fatalf("greedy job: state %s (%s)", gst.State, gst.Error)
	}
	// The floor is deliberately conservative: with a 200 Mbps per-endpoint
	// budget and at most 5 colocated sessions (the ring's bounded load),
	// the equal split guarantees ≥ 40 Mbps per session; 10 Mbps of
	// measured goodput leaves 4× margin for handshake and probe overhead.
	const floorMbps = 10.0
	for _, id := range meekIDs {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "done" {
			t.Fatalf("meek job %d: state %s (%s)", id, st.State, st.Error)
		}
		if st.AvgMbps < floorMbps {
			t.Errorf("meek job %d goodput %.1f Mbps under the %g Mbps floor (greedy session starved it)",
				id, st.AvgMbps, floorMbps)
		}
	}

	text := s.Snapshot().Text()
	if !strings.Contains(text, "automdt_endpoint_write_budget_mbps") {
		t.Fatalf("snapshot missing write-budget gauges:\n%s", text)
	}
}

// fleetGauge reads one sample of the fleet's snapshot by name and label
// value.
func fleetGauge(t *testing.T, fr *FleetRunner, name string, labels ...string) float64 {
	t.Helper()
	for _, s := range fr.Snapshot().Samples() {
		if s.Name != name || len(s.Labels) < len(labels) {
			continue
		}
		match := true
		for i, v := range labels {
			match = match && s.Labels[i].Value == v
		}
		if match {
			return s.Value
		}
	}
	t.Fatalf("no sample %s%v", name, labels)
	return 0
}

// TestFleetReusesConnections: a run of sequential jobs on one endpoint
// runs on the connections the first job dialed, instead of the endpoint
// accepting a control and a data connection per job.
func TestFleetReusesConnections(t *testing.T) {
	fr := &FleetRunner{Size: 1, Verify: true}
	defer fr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const jobs = 200
	for i := 0; i < jobs; i++ {
		spec := JobSpec{Manifest: workload.Manifest{{Name: fmt.Sprintf("reuse-%d", i), Size: 64 << 10}}}
		spec.Transfer.SessionID = fmt.Sprintf("reuse-%d", i)
		if _, err := fr.Run(ctx, spec, nil); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	ctrl := fleetGauge(t, fr, "automdt_endpoint_conns_accepted_total", "control")
	data := fleetGauge(t, fr, "automdt_endpoint_conns_accepted_total", "data")
	t.Logf("%d sequential jobs: the endpoint accepted %v control and %v data connections", jobs, ctrl, data)
	if ctrl > 2 || data > 2 {
		t.Fatalf("%d sequential jobs made the endpoint accept %v control and %v data connections, want at most 2 each", jobs, ctrl, data)
	}
	if got := fleetGauge(t, fr, "automdt_fleet_endpoint_idle_conns", "ep-0", "data"); got != 1 {
		t.Fatalf("the endpoint's pool holds %v data connections, want 1", got)
	}
}

// TestFleetKillEndpointDrainsPool: killing an endpoint closes the idle
// connections jobs left open to it, and jobs go on running on its sibling.
func TestFleetKillEndpointDrainsPool(t *testing.T) {
	fr := &FleetRunner{Size: 2, Verify: true}
	defer fr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	run := func(i int) {
		t.Helper()
		spec := JobSpec{Manifest: workload.Manifest{{Name: fmt.Sprintf("drain-%d", i), Size: 64 << 10}}}
		spec.Transfer.SessionID = fmt.Sprintf("drain-%d", i)
		if _, err := fr.Run(ctx, spec, nil); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	for i := 0; i < 20; i++ {
		run(i)
	}
	idle := func(ep string) float64 {
		return fleetGauge(t, fr, "automdt_fleet_endpoint_idle_conns", ep, "control") +
			fleetGauge(t, fr, "automdt_fleet_endpoint_idle_conns", ep, "data")
	}
	victim := "ep-0"
	if idle(victim) == 0 {
		victim = "ep-1"
	}
	if idle(victim) == 0 {
		t.Fatal("no endpoint holds an idle connection after 20 jobs")
	}
	if err := fr.KillEndpoint(victim); err != nil {
		t.Fatal(err)
	}
	if got := idle(victim); got != 0 {
		t.Fatalf("killed endpoint %s still pools %v connections", victim, got)
	}
	for i := 20; i < 30; i++ {
		run(i)
	}
}
