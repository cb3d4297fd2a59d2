package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"automdt/internal/env"
	"automdt/internal/fsim"
	"automdt/internal/static"
	"automdt/internal/transfer"
	"automdt/internal/workload"
)

func TestFairShare(t *testing.T) {
	cases := []struct {
		total   int
		weights []int
		want    []int
	}{
		{12, []int{1, 1, 1}, []int{4, 4, 4}},
		{12, []int{2, 1, 1}, []int{6, 3, 3}},
		{12, []int{2, 1}, []int{8, 4}},
		{3, []int{5, 1, 1}, []int{1, 1, 1}},        // floor: one worker each
		{4, []int{10, 1, 1, 1}, []int{1, 1, 1, 1}}, // nothing left beyond floors
		{16, []int{1}, []int{16}},
		{7, []int{1, 1}, []int{4, 3}}, // remainder goes to the older job
		{10, []int{0, -2}, []int{5, 5}},
		{0, nil, nil},
	}
	for _, c := range cases {
		got := fairShare(c.total, c.weights)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("fairShare(%d, %v) = %v, want %v", c.total, c.weights, got, c.want)
		}
		sum := 0
		for _, v := range got {
			sum += v
		}
		if len(c.weights) > 0 && len(c.weights) <= c.total && sum > c.total {
			t.Errorf("fairShare(%d, %v) oversubscribed: sum=%d", c.total, c.weights, sum)
		}
	}
}

// manifest1 is a tiny single-file manifest for fake-runner jobs.
func manifest1() workload.Manifest { return workload.LargeFiles(1, 1024) }

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// allocRecorder captures every arbiter allocation.
type allocRecorder struct {
	mu     sync.Mutex
	allocs []map[int64][env.StageCount]int
}

func (a *allocRecorder) record(m map[int64][env.StageCount]int) {
	cp := make(map[int64][env.StageCount]int, len(m))
	for k, v := range m {
		cp[k] = v
	}
	a.mu.Lock()
	a.allocs = append(a.allocs, cp)
	a.mu.Unlock()
}

func (a *allocRecorder) snapshot() []map[int64][env.StageCount]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]map[int64][env.StageCount]int(nil), a.allocs...)
}

func TestPriorityOrdering(t *testing.T) {
	started := make(chan string, 16)
	release := make(chan struct{})
	runner := RunnerFunc(func(ctx context.Context, spec JobSpec, ctrl env.Controller) (*transfer.Result, error) {
		started <- spec.Name
		select {
		case <-release:
			return &transfer.Result{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	s, err := New(Config{Budget: [env.StageCount]int{1, 1, 1, 1}, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.MaxActive() != 1 {
		t.Fatalf("MaxActive = %d, want 1 (clamped to min budget)", s.MaxActive())
	}

	submit := func(name string, pri int) {
		t.Helper()
		if _, err := s.Submit(JobSpec{Name: name, Manifest: manifest1(), Priority: pri}); err != nil {
			t.Fatal(err)
		}
	}
	submit("first", 1)
	if got := <-started; got != "first" {
		t.Fatalf("first started job = %q", got)
	}
	// Queue three more while "first" occupies the only slot.
	submit("low", 1)
	submit("high", 5)
	submit("mid", 2)
	close(release) // completions now cascade one at a time

	var order []string
	for i := 0; i < 3; i++ {
		order = append(order, <-started)
	}
	want := []string{"high", "mid", "low"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("start order = %v, want %v", order, want)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceOnCompletion(t *testing.T) {
	rec := &allocRecorder{}
	releases := map[string]chan struct{}{
		"heavy": make(chan struct{}),
		"a":     make(chan struct{}),
		"b":     make(chan struct{}),
	}
	runner := RunnerFunc(func(ctx context.Context, spec JobSpec, ctrl env.Controller) (*transfer.Result, error) {
		select {
		case <-releases[spec.Name]:
			return &transfer.Result{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	s, err := New(Config{
		Budget:      [env.StageCount]int{12, 12, 12, 12},
		MaxActive:   3,
		Runner:      runner,
		onRebalance: rec.record,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	id := map[string]int64{}
	for _, j := range []struct {
		name string
		pri  int
	}{{"heavy", 2}, {"a", 1}, {"b", 1}} {
		jid, err := s.Submit(JobSpec{Name: j.name, Manifest: manifest1(), Priority: j.pri})
		if err != nil {
			t.Fatal(err)
		}
		id[j.name] = jid
	}

	var full map[int64][env.StageCount]int
	waitFor(t, "all three jobs allocated", func() bool {
		for _, a := range rec.snapshot() {
			if len(a) == 3 {
				full = a
				return true
			}
		}
		return false
	})
	if full[id["heavy"]] != [env.StageCount]int{6, 6, 6, 6} {
		t.Errorf("heavy share = %v, want [6 6 6]", full[id["heavy"]])
	}
	if full[id["a"]] != [env.StageCount]int{3, 3, 3, 3} || full[id["b"]] != [env.StageCount]int{3, 3, 3, 3} {
		t.Errorf("light shares = %v, %v, want [3 3 3] each", full[id["a"]], full[id["b"]])
	}

	// Completing "a" must rebalance its slice onto the survivors.
	close(releases["a"])
	waitFor(t, "rebalance to two jobs", func() bool {
		for _, a := range rec.snapshot() {
			if len(a) == 2 && a[id["heavy"]] == [env.StageCount]int{8, 8, 8, 8} && a[id["b"]] == [env.StageCount]int{4, 4, 4, 4} {
				return true
			}
		}
		return false
	})
	close(releases["heavy"])
	close(releases["b"])
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCancelReleasesBudget(t *testing.T) {
	rec := &allocRecorder{}
	runner := RunnerFunc(func(ctx context.Context, spec JobSpec, ctrl env.Controller) (*transfer.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	s, err := New(Config{
		Budget:      [env.StageCount]int{8, 8, 8, 8},
		MaxActive:   2,
		Runner:      runner,
		onRebalance: rec.record,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	id1, _ := s.Submit(JobSpec{Name: "victim", Manifest: manifest1()})
	id2, _ := s.Submit(JobSpec{Name: "survivor", Manifest: manifest1()})
	waitFor(t, "both running with split budget", func() bool {
		for _, a := range rec.snapshot() {
			if len(a) == 2 && a[id1] == [env.StageCount]int{4, 4, 4, 4} {
				return true
			}
		}
		return false
	})

	if err := s.Cancel(id1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id1)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "cancelled" {
		t.Fatalf("victim state = %s, want cancelled", st.State)
	}
	waitFor(t, "survivor inherits full budget", func() bool {
		for _, a := range rec.snapshot() {
			if len(a) == 1 && a[id2] == [env.StageCount]int{8, 8, 8, 8} {
				return true
			}
		}
		return false
	})
	if err := s.Cancel(id2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(ctx, id2); err != nil {
		t.Fatal(err)
	}
	// Cancelling a terminal job is an error.
	if err := s.Cancel(id1); err == nil {
		t.Fatal("cancelling a cancelled job should fail")
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	release := make(chan struct{})
	var ran sync.Map
	runner := RunnerFunc(func(ctx context.Context, spec JobSpec, ctrl env.Controller) (*transfer.Result, error) {
		ran.Store(spec.Name, true)
		select {
		case <-release:
			return &transfer.Result{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	s, err := New(Config{Budget: [env.StageCount]int{1, 1, 1, 1}, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Submit(JobSpec{Name: "running", Manifest: manifest1()})
	qid, _ := s.Submit(JobSpec{Name: "queued", Manifest: manifest1()})
	if err := s.Cancel(qid); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Status(qid)
	if st.State != "cancelled" {
		t.Fatalf("queued job state = %s, want cancelled", st.State)
	}
	close(release)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := ran.Load("queued"); ok {
		t.Fatal("cancelled queued job still ran")
	}
}

func TestRetryThenFail(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	boom := errors.New("boom")
	runner := RunnerFunc(func(ctx context.Context, spec JobSpec, ctrl env.Controller) (*transfer.Result, error) {
		mu.Lock()
		attempts++
		mu.Unlock()
		return nil, boom
	})
	s, err := New(Config{Budget: [env.StageCount]int{2, 2, 2, 2}, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	id, _ := s.Submit(JobSpec{Name: "flaky", Manifest: manifest1(), MaxRetries: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if st.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", st.Attempts)
	}
	mu.Lock()
	got := attempts
	mu.Unlock()
	if got != 3 {
		t.Fatalf("runner invoked %d times, want 3", got)
	}
	if !strings.Contains(st.Error, "boom") {
		t.Fatalf("status error = %q, want the last attempt's error", st.Error)
	}
	txt := s.Snapshot().Text()
	for _, want := range []string{
		"automdt_sched_retries_total 2",
		`automdt_sched_jobs{state="failed"} 1`,
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("metrics missing %q:\n%s", want, txt)
		}
	}
}

func TestRetryThenSucceed(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	runner := RunnerFunc(func(ctx context.Context, spec JobSpec, ctrl env.Controller) (*transfer.Result, error) {
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n < 2 {
			return nil, errors.New("transient")
		}
		return &transfer.Result{Bytes: 1024, AvgMbps: 10}, nil
	})
	s, err := New(Config{Budget: [env.StageCount]int{2, 2, 2, 2}, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, _ := s.Submit(JobSpec{Name: "eventually", Manifest: manifest1(), MaxRetries: 3})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Attempts != 2 || st.Error != "" {
		t.Fatalf("status = %+v, want done after 2 attempts with no error", st)
	}
}

func TestSubmitValidation(t *testing.T) {
	fr := &FleetRunner{Size: 1}
	t.Cleanup(fr.Close)
	s, err := New(Config{Budget: [env.StageCount]int{1, 1, 1, 1}, Runner: fr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Name: "empty"}); err == nil {
		t.Fatal("empty manifest accepted")
	}
	s.Close()
	if _, err := s.Submit(JobSpec{Name: "late", Manifest: manifest1()}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if _, err := New(Config{Budget: [env.StageCount]int{1, 0, 0, 1}, Runner: fr}); err == nil {
		t.Fatal("zero stage budget accepted")
	}
}

// A scheduler without a runner has no way to run a job; New refuses it
// rather than pick one.
func TestNewRequiresRunner(t *testing.T) {
	_, err := New(Config{Budget: [env.StageCount]int{1, 1, 1, 1}})
	if err == nil || !strings.Contains(err.Error(), "Runner") {
		t.Fatalf("New without a runner: err = %v, want a refusal naming Runner", err)
	}
}

// TestHugePriorityNoOverflow guards the arbiter against weight sums
// overflowing int: two near-MaxInt priorities must clamp, not panic or
// oversubscribe.
func TestHugePriorityNoOverflow(t *testing.T) {
	rec := &allocRecorder{}
	release := make(chan struct{})
	runner := RunnerFunc(func(ctx context.Context, spec JobSpec, ctrl env.Controller) (*transfer.Result, error) {
		select {
		case <-release:
			return &transfer.Result{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	s, err := New(Config{Budget: [env.StageCount]int{8, 8, 8, 8}, MaxActive: 2, Runner: runner, onRebalance: rec.record})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(JobSpec{
			Name: fmt.Sprintf("huge-%d", i), Manifest: manifest1(),
			Priority: int(^uint(0) >> 2), // far beyond MaxPriority
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "both huge-priority jobs allocated", func() bool {
		for _, a := range rec.snapshot() {
			if len(a) == 2 {
				for _, sh := range a {
					if sh != [env.StageCount]int{4, 4, 4, 4} {
						t.Fatalf("unequal clamped-weight shares: %v", a)
					}
				}
				return true
			}
		}
		return false
	})
	close(release)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fairShare(24, []int{1 << 62, 1 << 62, 1}) == nil {
		t.Fatal("fairShare returned nil for huge weights")
	}
}

// TestHistoryEviction verifies terminal jobs beyond the history cap are
// evicted so a long-running scheduler stays bounded.
func TestHistoryEviction(t *testing.T) {
	runner := RunnerFunc(func(ctx context.Context, spec JobSpec, ctrl env.Controller) (*transfer.Result, error) {
		return &transfer.Result{Bytes: 1}, nil
	})
	s, err := New(Config{Budget: [env.StageCount]int{2, 2, 2, 2}, Runner: runner, History: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var last int64
	for i := 0; i < 5; i++ {
		id, err := s.Submit(JobSpec{Name: fmt.Sprintf("j%d", i), Manifest: manifest1()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
		last = id
	}
	list := s.List()
	if len(list) != 2 {
		t.Fatalf("retained %d jobs, want 2 (history cap)", len(list))
	}
	if list[len(list)-1].ID != last {
		t.Fatalf("newest job %d missing from history: %+v", last, list)
	}
	if _, err := s.Status(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("evicted job Status err = %v, want ErrNotFound", err)
	}
}

// TestGlobalBudgetCompliance is the acceptance test: ten concurrent
// transfer jobs on one shared endpoint, each driven by a greedy controller that wants
// 32 workers per stage, scheduled under a global budget of 16 per stage.
// Every arbiter allocation must keep the summed per-job caps within the
// budget, with all ten jobs simultaneously active at some point.
func TestGlobalBudgetCompliance(t *testing.T) {
	const jobs = 10
	budget := [env.StageCount]int{16, 16, 16, 16}
	rec := &allocRecorder{}
	fr := &FleetRunner{Size: 1}
	t.Cleanup(fr.Close)
	s, err := New(Config{
		Budget:        budget,
		MaxActive:     jobs,
		NewController: func() env.Controller { return static.New(32) },
		Runner:        fr,
		onRebalance:   rec.record,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < jobs; i++ {
		_, err := s.Submit(JobSpec{
			Name:     fmt.Sprintf("tenant-%02d", i),
			Manifest: workload.LargeFiles(2, 2<<20),
			Priority: 1 + i%3,
			Transfer: transfer.Config{
				ProbeInterval: 20 * time.Millisecond,
				MaxThreads:    32,
				Shaping:       transfer.Shaping{LinkMbps: 300},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	for _, st := range s.List() {
		if st.State != "done" {
			t.Errorf("job %d (%s) state = %s (%s), want done", st.ID, st.Name, st.State, st.Error)
		}
	}

	allocs := rec.snapshot()
	sawAllActive := false
	for _, alloc := range allocs {
		if len(alloc) == jobs {
			sawAllActive = true
		}
		var sums [env.StageCount]int
		for id, share := range alloc {
			for stage := 0; stage < 3; stage++ {
				if share[stage] < 1 {
					t.Fatalf("job %d starved at stage %d: alloc %v", id, stage, alloc)
				}
				sums[stage] += share[stage]
			}
		}
		for stage := 0; stage < 3; stage++ {
			if sums[stage] > budget[stage] {
				t.Fatalf("stage %d oversubscribed: allocated %d > budget %d in %v",
					stage, sums[stage], budget[stage], alloc)
			}
		}
	}
	if !sawAllActive {
		t.Fatalf("never observed all %d jobs active; allocation sizes seen: %v",
			jobs, func() (ls []int) {
				for _, a := range allocs {
					ls = append(ls, len(a))
				}
				return
			}())
	}
}

// The arena capacity must follow the admitted job set: grow to cover
// active jobs' staging demand on rebalance, and return to the baseline
// once the jobs finish.
func TestArenaCapacityFollowsActiveJobs(t *testing.T) {
	const base = 1 << 20
	arena := transfer.NewArena(base)
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	runner := RunnerFunc(func(ctx context.Context, spec JobSpec, ctrl env.Controller) (*transfer.Result, error) {
		// Every job must see the shared arena injected into its config.
		if spec.Transfer.Arena != arena {
			t.Error("job config missing the scheduler's shared arena")
		}
		started <- struct{}{}
		select {
		case <-release:
			return &transfer.Result{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	s, err := New(Config{Budget: [env.StageCount]int{8, 8, 8, 8}, MaxActive: 2, Runner: runner, Arena: arena})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	xfer := transfer.Config{SenderBufBytes: 8 << 20, ReceiverBufBytes: 8 << 20,
		ChunkBytes: 64 << 10, MaxThreads: 4}
	perJob := arenaDemand(JobSpec{Transfer: xfer})
	if perJob != 16<<20+2*4*(64<<10) {
		t.Fatalf("arenaDemand = %d", perJob)
	}

	for i := 0; i < 2; i++ {
		if _, err := s.Submit(JobSpec{Name: "j", Manifest: manifest1(), Transfer: xfer}); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	<-started
	waitFor(t, "capacity covers both active jobs", func() bool {
		return arena.Capacity() == 2*perJob
	})

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "capacity back to baseline when idle", func() bool {
		return arena.Capacity() == base
	})

	if snap := s.Snapshot().Text(); !strings.Contains(snap, "automdt_arena_capacity_bytes") {
		t.Fatalf("scheduler snapshot missing arena gauges:\n%s", snap)
	}
}

// budgetDirStore wraps a DirStore destination whose writes start failing
// after a byte budget — a disk that fills up mid-transfer.
type budgetDirStore struct {
	*fsim.DirStore
	mu     sync.Mutex
	budget int64
}

func (b *budgetDirStore) Create(name string, size int64) (fsim.FileWriter, error) {
	w, err := b.DirStore.Create(name, size)
	if err != nil {
		return nil, err
	}
	return &budgetWriter{inner: w, store: b}, nil
}

type budgetWriter struct {
	inner fsim.FileWriter
	store *budgetDirStore
}

func (w *budgetWriter) WriteAt(p []byte, off int64) (int, error) {
	w.store.mu.Lock()
	fit := w.store.budget
	if fit > int64(len(p)) {
		fit = int64(len(p))
	}
	w.store.budget -= fit
	w.store.mu.Unlock()
	if fit < int64(len(p)) {
		// A real disk that fills mid-write shorts the write: the bytes
		// that fit are on disk and the caller learns how many.
		n, err := w.inner.WriteAt(p[:fit], off)
		if err != nil {
			return n, err
		}
		return n, errors.New("disk full (injected)")
	}
	return w.inner.WriteAt(p, off)
}

func (w *budgetWriter) Close() error { return w.inner.Close() }

// A failed attempt must resume its session on retry: same session ID,
// ledger-committed ranges skipped, and the job reporting resume progress
// through the daemon status.
func TestRetryResumesSession(t *testing.T) {
	dir := t.TempDir()
	var attempts atomic.Int64
	runner := RunnerFunc(func(ctx context.Context, spec JobSpec, ctrl env.Controller) (*transfer.Result, error) {
		n := attempts.Add(1)
		src := fsim.NewSyntheticStore()
		ds, err := fsim.NewDirStore(dir)
		if err != nil {
			return nil, err
		}
		var dst fsim.Store = ds
		if n == 1 {
			// First attempt: the destination fills up after 256 KiB.
			dst = &budgetDirStore{DirStore: ds, budget: 256 << 10}
		}
		return transfer.Loopback(ctx, spec.Transfer, spec.Manifest, src, dst, ctrl)
	})
	s, err := New(Config{Budget: [env.StageCount]int{4, 4, 4, 4}, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	m := workload.LargeFiles(2, 1<<20) // 2 MiB, fails ~12% in
	id, err := s.Submit(JobSpec{
		Name:       "resumable",
		Manifest:   m,
		MaxRetries: 2,
		Transfer: transfer.Config{
			ChunkBytes:     64 << 10,
			ProbeInterval:  25 * time.Millisecond,
			InitialThreads: 2,
			MaxThreads:     4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("job ended %s (err=%q)", st.State, st.Error)
	}
	if st.Attempts != 2 {
		t.Fatalf("attempts=%d want 2", st.Attempts)
	}
	if st.SessionID == "" {
		t.Fatal("job has no session id")
	}
	if st.Resumes < 1 {
		t.Fatalf("retry did not resume (resumes=%d)", st.Resumes)
	}
	if st.SkippedBytes <= 0 {
		t.Fatalf("resume skipped nothing (skipped=%d)", st.SkippedBytes)
	}
	if st.CommittedBytes != m.TotalBytes() {
		t.Fatalf("committed=%d want %d", st.CommittedBytes, m.TotalBytes())
	}
	// The resume counters must be visible on the daemon metrics page.
	var found bool
	for _, smp := range s.Snapshot().Samples() {
		if smp.Name == "automdt_resume_sessions_total" && smp.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("automdt_resume_sessions_total missing from scheduler snapshot")
	}
}

// A retried attempt on a size-1 fleet resumes on the same endpoint: the
// endpoint's shared store keeps the cancelled attempt's ledger, and the
// second attempt skips what the first committed.
func TestFleetRetryResumesOnSameEndpoint(t *testing.T) {
	store := fsim.NewSyntheticStore()
	store.Verify = true
	// The endpoint's own probe tick paces ledger persistence, so it must
	// tick within attempt 1's lifetime.
	fr := &FleetRunner{Size: 1, Store: store, Receiver: transfer.Config{ProbeInterval: 25 * time.Millisecond}}
	t.Cleanup(fr.Close)
	endpointOf := placedEndpoints(t)
	const session = "same-endpoint"
	spec := JobSpec{
		Manifest: workload.LargeFiles(4, 1<<20),
		Transfer: transfer.Config{
			SessionID:      session,
			ChunkBytes:     64 << 10,
			InitialThreads: 2,
			MaxThreads:     4,
			ProbeInterval:  25 * time.Millisecond,
			Shaping:        transfer.Shaping{LinkMbps: 200},
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			if l, err := transfer.LoadSessionLedger(store, session); err == nil && l.CommittedBytes() > 0 {
				cancel() // kill attempt 1 mid-flight
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		cancel()
	}()
	if _, err := fr.Run(ctx, spec, nil); err == nil {
		t.Fatal("cancelled attempt succeeded")
	}
	cancel()

	spec2 := spec
	spec2.Transfer.Shaping = transfer.Shaping{}
	res, err := fr.Run(context.Background(), spec2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed || res.SkippedBytes <= 0 {
		t.Fatalf("retry on the same endpoint did not resume: %+v", res)
	}
	if ep := endpointOf(session); ep != "ep-0" {
		t.Fatalf("retry ran on %q, want ep-0", ep)
	}
	if errs := store.Errors(); len(errs) > 0 {
		t.Fatalf("shared store verification errors: %v", errs)
	}
}
