package transfer

import (
	"context"
	"strings"
	"testing"
	"time"

	"automdt/internal/fsim"
	"automdt/internal/metrics"
	"automdt/internal/rate"
	"automdt/internal/workload"
)

// shareGauge reads the arbiter's per-session share off its snapshot.
func shareGauge(a *writeArbiter) float64 {
	var snap metrics.Snapshot
	a.snapshotInto(&snap)
	for _, s := range snap.Samples() {
		if s.Name == "automdt_endpoint_write_budget_share_mbps" {
			return s.Value
		}
	}
	return -1
}

// minWait takes n bytes from lim and fails unless that blocked for at
// least the time a bucket of shareMbps with a 20 ms burst must charge:
// (n − burst) / rate. A bucket above its share lets the bytes through
// sooner.
func minWait(t *testing.T, lim *rate.Limiter, shareMbps float64, n int) {
	t.Helper()
	r := mbpsToBytesPerSec(shareMbps)
	want := time.Duration((float64(n) - 0.02*r) / r * float64(time.Second))
	start := time.Now()
	if err := lim.WaitN(context.Background(), n); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < want*9/10 {
		t.Fatalf("%d bytes passed in %v; a %v Mbps bucket charges ≥ %v", n, d, shareMbps, want)
	}
}

func TestWriteArbiterEqualSplit(t *testing.T) {
	a := newWriteArbiter(120, 1<<10)
	if a == nil {
		t.Fatal("arbiter nil for positive budget")
	}
	l1 := a.join("s1")
	if got := shareGauge(a); got != 120 {
		t.Fatalf("share with 1 member = %v, want 120", got)
	}

	l2 := a.join("s2")
	a.join("s3")
	if got := shareGauge(a); got != 40 {
		t.Fatalf("share with 3 members = %v, want 40", got)
	}
	minWait(t, l1, 40, 150_000)
	minWait(t, l2, 40, 150_000)

	// Leaves redistribute to the survivors.
	a.leave("s2")
	a.leave("s2") // double-leave: no-op
	if got := shareGauge(a); got != 60 {
		t.Fatalf("share after leave = %v, want 60", got)
	}
	minWait(t, l1, 60, 250_000)

	// Rejoin returns the same bucket.
	if a.join("s1") != l1 {
		t.Fatal("join of existing member returned a new bucket")
	}
}

func TestWriteArbiterDisabled(t *testing.T) {
	if a := newWriteArbiter(0, 1<<20); a != nil {
		t.Fatal("arbiter non-nil for zero budget")
	}
	if a := newWriteArbiter(-5, 1<<20); a != nil {
		t.Fatal("arbiter non-nil for negative budget")
	}
}

func TestWriteArbiterSnapshot(t *testing.T) {
	a := newWriteArbiter(80, 1<<20)
	a.join("s1")
	a.join("s2")
	var snap metrics.Snapshot
	a.snapshotInto(&snap)
	got := map[string]float64{}
	for _, s := range snap.Samples() {
		got[s.Name] = s.Value
	}
	if got["automdt_endpoint_write_budget_mbps"] != 80 {
		t.Errorf("budget gauge = %v, want 80", got["automdt_endpoint_write_budget_mbps"])
	}
	if got["automdt_endpoint_write_budget_sessions"] != 2 {
		t.Errorf("sessions gauge = %v, want 2", got["automdt_endpoint_write_budget_sessions"])
	}
	if got["automdt_endpoint_write_budget_share_mbps"] != 40 {
		t.Errorf("share gauge = %v, want 40", got["automdt_endpoint_write_budget_share_mbps"])
	}
	if got["automdt_endpoint_write_budget_rebalances_total"] != 2 {
		t.Errorf("rebalances = %v, want 2", got["automdt_endpoint_write_budget_rebalances_total"])
	}
}

// TestWriteBudgetEndToEnd drives one budgeted session over loopback and
// asserts the transfer stays byte-correct with the budget bucket in the
// write pool — the wiring from Config.WriteBudgetMbps through the
// arbiter to the per-chunk WaitN.
func TestWriteBudgetEndToEnd(t *testing.T) {
	cfg := testConfig()
	cfg.WriteBudgetMbps = 4000 // generous: exercises the path, not the pacing
	m := workload.LargeFiles(4, 1<<20)
	src, dst := fsim.NewSyntheticStore(), fsim.NewSyntheticStore()
	dst.Verify = true
	res, err := Loopback(context.Background(), cfg, m, src, dst, nil)
	if err != nil {
		t.Fatalf("budgeted loopback run: %v", err)
	}
	if res.Bytes != 4<<20 {
		t.Fatalf("transferred %d bytes, want %d", res.Bytes, int64(4<<20))
	}
	if errs := dst.Errors(); len(errs) > 0 {
		t.Fatalf("store verification errors: %v", errs)
	}
}

// TestWriteBudgetGaugesOnSnapshot asserts a budgeted endpoint exports
// the automdt_endpoint_write_budget_* gauges.
func TestWriteBudgetGaugesOnSnapshot(t *testing.T) {
	cfg := testConfig()
	cfg.WriteBudgetMbps = 100
	r := NewReceiver(cfg, fsim.NewSyntheticStore())
	text := r.MetricsSnapshot().Text()
	for _, want := range []string{
		"automdt_endpoint_write_budget_mbps",
		"automdt_endpoint_write_budget_sessions",
		"automdt_endpoint_write_budget_share_mbps",
		"automdt_endpoint_write_budget_rebalances_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, text)
		}
	}
	// Unbudgeted endpoints must not grow new series.
	r2 := NewReceiver(testConfig(), fsim.NewSyntheticStore())
	if strings.Contains(r2.MetricsSnapshot().Text(), "write_budget") {
		t.Fatal("unbudgeted endpoint exports write-budget gauges")
	}
}
