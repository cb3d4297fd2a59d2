package enginebench

import (
	"encoding/json"
	"strings"
	"testing"

	"automdt/internal/transfer"
)

func report(results ...Result) Report {
	// Same CPU/core-count/platform on both sides so the throughput gate
	// arms.
	return Report{Schema: 1, GOOS: "linux", GOARCH: "amd64", CPU: "test-cpu", Cores: 8, Results: results}
}

func TestCompareThroughputGate(t *testing.T) {
	base := report(Result{Name: "loopback_e2e", MBPerSec: 500, AllocsPerOp: 1000})
	ok := report(Result{Name: "loopback_e2e", MBPerSec: 401, AllocsPerOp: 1000})
	if regs := Compare(base, ok, 0.20); len(regs) != 0 {
		t.Fatalf("within-tolerance run flagged: %v", regs)
	}
	bad := report(Result{Name: "loopback_e2e", MBPerSec: 399, AllocsPerOp: 1000})
	regs := Compare(base, bad, 0.20)
	if len(regs) != 1 || regs[0].Metric != "mb_per_s" {
		t.Fatalf("regression not caught: %v", regs)
	}
	if !strings.Contains(regs[0].String(), "loopback_e2e") {
		t.Fatalf("unhelpful message: %s", regs[0])
	}
}

func TestCompareAllocGate(t *testing.T) {
	base := report(Result{Name: "frame_encode", AllocsPerOp: 0})
	// Near-zero-alloc benchmarks get absolute slack: 4 allocs of jitter
	// must pass, a real leak must not.
	if regs := Compare(base, report(Result{Name: "frame_encode", AllocsPerOp: 4}), 0.20); len(regs) != 0 {
		t.Fatalf("jitter flagged: %v", regs)
	}
	if regs := Compare(base, report(Result{Name: "frame_encode", AllocsPerOp: 5}), 0.20); len(regs) != 1 {
		t.Fatalf("alloc regression not caught: %v", regs)
	}
	big := report(Result{Name: "loopback_e2e", AllocsPerOp: 1000})
	if regs := Compare(big, report(Result{Name: "loopback_e2e", AllocsPerOp: 1300}), 0.20); len(regs) != 1 {
		t.Fatalf("20%%+ alloc growth not caught: %v", regs)
	}
}

func TestCompareThroughputNeedsSameCPU(t *testing.T) {
	base := report(Result{Name: "loopback_e2e", MBPerSec: 5000, AllocsPerOp: 100})
	cur := report(Result{Name: "loopback_e2e", MBPerSec: 100, AllocsPerOp: 100})
	cur.CPU = "a different runner"
	// A 50× throughput gap across different hardware is not a
	// regression — but an alloc jump still is.
	if regs := Compare(base, cur, 0.20); len(regs) != 0 {
		t.Fatalf("cross-hardware throughput flagged: %v", regs)
	}
	cur.Results[0].AllocsPerOp = 200
	if regs := Compare(base, cur, 0.20); len(regs) != 1 || regs[0].Metric != "allocs_per_op" {
		t.Fatalf("alloc gate must stay armed across hardware: %v", regs)
	}
	unknown := report(Result{Name: "x", MBPerSec: 1})
	unknown.CPU = ""
	if ThroughputComparable(unknown, unknown) {
		t.Fatal("unknown CPUs must not be considered comparable")
	}
	// Hypervisors mask the model name to a shared generic string, so an
	// identical CPU string with a different core count (a differently
	// sized runner) must not arm the throughput gate either.
	smaller := report(Result{Name: "x", MBPerSec: 1})
	smaller.Cores = 2
	if ThroughputComparable(report(), smaller) {
		t.Fatal("same masked CPU string with different core counts must not be comparable")
	}
}

// A scenario on one side only means the baseline and the suite have
// drifted apart: both directions fail the gate instead of passing
// unmeasured.
func TestCompareFailsOnScenarioMismatch(t *testing.T) {
	base := report(Result{Name: "shared", MBPerSec: 100}, Result{Name: "old_bench", MBPerSec: 100})
	cur := report(Result{Name: "shared", MBPerSec: 100}, Result{Name: "new_bench", MBPerSec: 1})
	regs := Compare(base, cur, 0.20)
	if len(regs) != 2 {
		t.Fatalf("want one finding per unmatched scenario, got %v", regs)
	}
	got := regs[0].String() + "\n" + regs[1].String()
	for _, want := range []string{"old_bench: scenario missing from this run", "new_bench: scenario missing from the baseline"} {
		if !strings.Contains(got, want) {
			t.Fatalf("findings %q lack %q", got, want)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	in := Report{Schema: 1, Go: "go1.24.0", GOOS: "linux", GOARCH: "amd64", Quick: true,
		Results: []Result{{Name: "x", NsPerOp: 12.5, MBPerSec: 900, AllocsPerOp: 3, BytesPerOp: 128}}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Report
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Results[0] != in.Results[0] || out.Go != in.Go {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

// Smoke: the micro-benchmarks run and produce sane reports (each
// testing.Benchmark call costs ~1 s of benchtime, so skip under -short).
func TestMicroBenchmarksRun(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark smoke is slow; skipped with -short")
	}
	for name, fn := range map[string]func(*testing.B){
		"frame_encode":      FrameEncode,
		"frame_decode":      FrameDecode,
		"staging_handoff":   StagingHandoff,
		"arena_get_release": ArenaGetRelease,
	} {
		r := testing.Benchmark(fn)
		if r.N < 1 || r.T <= 0 {
			t.Fatalf("%s did not run: %+v", name, r)
		}
	}
}

func TestFlightOverhead(t *testing.T) {
	rep := report(
		Result{Name: "loopback_e2e", MBPerSec: 500},
		Result{Name: "loopback_e2e_flight", MBPerSec: 475},
	)
	frac, ok := FlightOverhead(rep)
	if !ok || frac < 0.049 || frac > 0.051 {
		t.Fatalf("FlightOverhead=%v ok=%v, want 0.05", frac, ok)
	}
	// Flight run faster than plain (jitter): negative overhead, still ok.
	rep.Results[1].MBPerSec = 510
	if frac, ok := FlightOverhead(rep); !ok || frac >= 0 {
		t.Fatalf("faster flight run: frac=%v ok=%v", frac, ok)
	}
	// Missing scenario: not ok.
	if _, ok := FlightOverhead(report(Result{Name: "loopback_e2e", MBPerSec: 500})); ok {
		t.Fatal("missing flight scenario reported ok")
	}
}

func TestComparePersistedBytesGate(t *testing.T) {
	base := report(Result{Name: "ledger_tick_v2", PersistedBytesPerOp: 10000})
	if regs := Compare(base, report(Result{Name: "ledger_tick_v2", PersistedBytesPerOp: 11900}), 0.20); len(regs) != 0 {
		t.Fatalf("within-tolerance persist growth flagged: %v", regs)
	}
	regs := Compare(base, report(Result{Name: "ledger_tick_v2", PersistedBytesPerOp: 12200}), 0.20)
	if len(regs) != 1 || regs[0].Metric != "persisted_bytes_per_op" {
		t.Fatalf("persist regression not caught: %v", regs)
	}
	// Benchmarks without the metric (everything but the ledger ticks)
	// must not arm the gate.
	if regs := Compare(report(Result{Name: "frame_encode"}), report(Result{Name: "frame_encode", PersistedBytesPerOp: 5}), 0.20); len(regs) != 0 {
		t.Fatalf("metric-less benchmark armed the persist gate: %v", regs)
	}
}

// The ledger scenario's acceptance criterion, shrunk to test speed: at
// steady state a journaled probe tick persists at least 10× fewer bytes
// than the full-snapshot rewrite of the same session (the live fallback
// for stores without fsim.LedgerAppender).
func TestLedgerTickDeltaIsTenthOfDocument(t *testing.T) {
	const chunks = 64 << 10 // 16 files of the scenario's 4096-chunk shape
	m := ledgerBenchManifest(chunks)
	l := transfer.NewLedger("tick-ratio", chunkBytes, m, true)
	cb := int64(chunkBytes)
	for g := 0; g < chunks; g++ {
		l.Commit(uint32(g/ledgerChunksPerFile), int64(g%ledgerChunksPerFile)*cb, chunkBytes, uint32(g))
	}
	l.AppendSince()
	// One steady-state tick's worth of fresh commits.
	for j := 0; j < ledgerTickChunks; j++ {
		fid := uint32(j / ledgerChunksPerFile)
		off := int64(j%ledgerChunksPerFile) * cb
		l.Invalidate(fid, off, cb)
		l.Commit(fid, off, chunkBytes, uint32(j))
	}
	delta := l.AppendSince()
	doc := l.EncodeV2()
	if len(delta) == 0 || len(doc) < 10*len(delta) {
		t.Fatalf("snapshot tick writes %d bytes, journal tick %d: want ≥10× reduction", len(doc), len(delta))
	}
	t.Logf("snapshot tick %d B, journal tick %d B (%.0f×) at %d chunks", len(doc), len(delta), float64(len(doc))/float64(len(delta)), chunks)
}

func TestMultiConnSpeedup(t *testing.T) {
	rep := report(
		Result{Name: "loopback_e2e", MBPerSec: 500},
		Result{Name: "loopback_e2e_multiconn", MBPerSec: 525},
	)
	ratio, ok := MultiConnSpeedup(rep)
	if !ok || ratio < 1.049 || ratio > 1.051 {
		t.Fatalf("MultiConnSpeedup=%v ok=%v, want 1.05", ratio, ok)
	}
	// Missing scenario: not ok.
	if _, ok := MultiConnSpeedup(report(Result{Name: "loopback_e2e", MBPerSec: 500})); ok {
		t.Fatal("missing multiconn scenario reported ok")
	}
}

// The striped scenario runs end to end and does not cost goodput over a
// loopback (parity within noise; striping cannot win where there is no
// per-connection ceiling).
func TestMultiConnScenarioParity(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark smoke is slow; skipped with -short")
	}
	plain := toResult("loopback_e2e", 16<<20, testing.Benchmark(LoopbackE2E(true, true)))
	multi := toResult("loopback_e2e_multiconn", 16<<20, testing.Benchmark(LoopbackE2EMultiConn(true, 4)))
	if plain.MBPerSec <= 0 || multi.MBPerSec <= 0 {
		t.Fatalf("scenario did not run: plain=%v multi=%v", plain.MBPerSec, multi.MBPerSec)
	}
	if multi.MBPerSec < 0.5*plain.MBPerSec {
		t.Fatalf("striped goodput %.0f MB/s far below single-conn %.0f MB/s", multi.MBPerSec, plain.MBPerSec)
	}
}
