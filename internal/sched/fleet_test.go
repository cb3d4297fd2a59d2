package sched

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"automdt/internal/env"
	"automdt/internal/fsim"
	"automdt/internal/transfer"
	"automdt/internal/workload"
)

// A Size-1 fleet is the single shared endpoint: every job lands on one
// multi-session receiver, its gauges ride the scheduler snapshot
// unlabeled, and a job naming its own DestDir is refused.
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

	// A DestDir job cannot target a shared endpoint.
	id, err := s.Submit(JobSpec{
		Name:     "bad",
		Manifest: workload.LargeFiles(1, 64<<10),
		DestDir:  t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || !strings.Contains(st.Error, "DestDir") {
		t.Fatalf("DestDir job against shared endpoint: state=%s err=%q", st.State, st.Error)
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
		// A short beat so the kill surfaces quickly, but a generous TTL:
		// under the race detector a healthy endpoint's heartbeat
		// goroutine can stall past a tight TTL and flap the registry.
		HeartbeatEvery: 20 * time.Millisecond,
		HeartbeatTTL:   200 * time.Millisecond,
	}
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
		if ep := fr.EndpointOf(st.SessionID); ep == victim || ep == "" {
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
				fr.EndpointOf(st.SessionID), st.Error)
		}
		t.Fatal("no victim session resumed: the kill landed after every victim session finished")
	}

	if st := fr.Status(); st.Failovers < 1 {
		t.Fatalf("fleet failovers = %d, want ≥ 1", st.Failovers)
	}

	// The registry marks the victim dead once its heartbeat TTL lapses,
	// and a momentarily stalled sibling can flap; poll for the settled
	// picture — victim dead, both siblings live — rather than racing the
	// sweep.
	gaugeDeadline := time.Now().Add(5 * time.Second)
	for {
		st := fr.Status()
		liveCount := 0
		victimLive := false
		for _, ep := range st.Endpoints {
			if ep.Live {
				liveCount++
				if ep.ID == victim {
					victimLive = true
				}
			}
		}
		text := s.Snapshot().Text()
		if !victimLive && liveCount == 2 &&
			strings.Contains(text, `automdt_fleet_endpoints{state="dead"} 1`) &&
			strings.Contains(text, "automdt_fleet_failovers_total") &&
			strings.Contains(text, "automdt_fleet_heartbeat_expirations_total") {
			break
		}
		if time.Now().After(gaugeDeadline) {
			t.Fatalf("fleet never settled at 2 live + 1 dead (victim %s): %+v\n%s", victim, st, text)
		}
		time.Sleep(20 * time.Millisecond)
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
	if got := fr.EndpointOf(session); got == victim || got == "" {
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
