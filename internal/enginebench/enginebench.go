// Package enginebench is the transfer-engine micro-benchmark suite
// behind `automdt-bench -exp engine` and the CI bench gate. The same
// benchmark bodies back the `go test -bench Engine` benchmarks in the
// repo root and the machine-readable BENCH_engine.json artifact that CI
// uploads and diffs against the committed baseline.
package enginebench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"automdt/internal/flight"
	"automdt/internal/fsim"
	"automdt/internal/transfer"
	"automdt/internal/wire"
	"automdt/internal/workload"
)

// chunkBytes is the frame payload size used by the micro-benchmarks,
// matching the engine's default chunk size.
const chunkBytes = 256 << 10

// FrameEncode measures FrameWriter throughput (checksummed, the
// worst case) into a discard sink.
func FrameEncode(b *testing.B) {
	payload := make([]byte, chunkBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	var fw wire.FrameWriter
	f := wire.Frame{FileID: 7, Offset: 1 << 20, Data: payload, Checksum: true}
	b.SetBytes(chunkBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fw.Write(io.Discard, f); err != nil {
			b.Fatal(err)
		}
	}
}

// FrameDecode measures FrameReader throughput with arena-backed payload
// allocation, round-tripping a checksummed frame.
func FrameDecode(b *testing.B) {
	payload := make([]byte, chunkBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, wire.Frame{FileID: 7, Offset: 64, Data: payload, Checksum: true}); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()
	arena := transfer.NewArena(64 << 20)
	var pending *transfer.Buf
	alloc := func(n int) []byte {
		pending = arena.Get(n)
		return pending.Bytes()
	}
	var fr wire.FrameReader
	r := bytes.NewReader(encoded)
	b.SetBytes(chunkBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(encoded)
		f, err := fr.Read(r, alloc)
		if err != nil {
			b.Fatal(err)
		}
		if len(f.Data) != chunkBytes {
			b.Fatalf("decoded %d bytes", len(f.Data))
		}
		pending.Release()
	}
}

// StagingHandoff measures the bounded-buffer ownership hand-off: one
// arena lease staged and drained per iteration.
func StagingHandoff(b *testing.B) {
	arena := transfer.NewArena(64 << 20)
	s := transfer.NewStaging(8 << 20)
	b.SetBytes(chunkBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := arena.Get(chunkBytes)
		if !s.Put(transfer.Chunk{FileID: 1, Offset: int64(i), Data: buf.Bytes(), Buf: buf}) {
			b.Fatal("staging closed")
		}
		c, ok, _ := s.TryGet()
		if !ok {
			b.Fatal("staged chunk missing")
		}
		c.Release()
	}
}

// ArenaGetRelease measures the raw lease/release cycle at a mixed
// full-chunk and tail-chunk size pattern.
func ArenaGetRelease(b *testing.B) {
	arena := transfer.NewArena(64 << 20)
	sizes := [4]int{chunkBytes, chunkBytes, chunkBytes, 9 << 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := arena.Get(sizes[i&3])
		buf.Release()
	}
}

// LoopbackE2E is the end-to-end loopback body: the whole
// sender→wire→receiver→staging→writer chunk lifecycle over loopback TCP
// with no rate shaping, reported in MB/s, allocs/op, and syscalls/op
// (the wire.IOOps data-plane counter delta — reads, frame writes, frame
// reads, store writes — per end-to-end op; strace-free, so it runs
// everywhere CI does). checksums toggles the wire frame CRC-32C and the
// ledger/file verification built on it (on is the engine default).
func LoopbackE2E(quick, checksums bool) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := transfer.Config{
			ChunkBytes:       chunkBytes,
			MaxThreads:       16,
			InitialThreads:   8,
			ProbeInterval:    100 * time.Millisecond,
			DisableChecksums: !checksums,
		}
		m := workload.LargeFiles(16, 4<<20) // 64 MB
		if quick {
			m = workload.LargeFiles(8, 2<<20) // 16 MB
			cfg.InitialThreads = 4
		}
		b.SetBytes(m.TotalBytes())
		b.ReportAllocs()
		b.ResetTimer()
		ops := wire.IOOps()
		for i := 0; i < b.N; i++ {
			src, dst := fsim.NewSyntheticStore(), fsim.NewSyntheticStore()
			if _, err := transfer.Loopback(context.Background(), cfg, m, src, dst, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(wire.IOOps()-ops)/float64(b.N), "syscalls/op")
	}
}

// LoopbackE2EMultiConn is the striped data plane end to end: the same
// dataset and chunk lifecycle as LoopbackE2E, with the sender striping
// chunks across conns parallel data connections into one receiver
// fan-in. Gated against the baseline like every scenario; the CI gate
// additionally holds MultiConnSpeedup to ≥ 1 within a run's noise —
// striping must never cost goodput over a loopback where it cannot win
// much either.
func LoopbackE2EMultiConn(quick bool, conns int) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := transfer.Config{
			ChunkBytes:     chunkBytes,
			MaxThreads:     16,
			InitialThreads: 8,
			ProbeInterval:  100 * time.Millisecond,
			Conns:          conns,
		}
		m := workload.LargeFiles(16, 4<<20) // 64 MB
		if quick {
			m = workload.LargeFiles(8, 2<<20) // 16 MB
			cfg.InitialThreads = 4
		}
		b.SetBytes(m.TotalBytes())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src, dst := fsim.NewSyntheticStore(), fsim.NewSyntheticStore()
			if _, err := transfer.Loopback(context.Background(), cfg, m, src, dst, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// MultiConnSpeedup returns the striped-over-single goodput ratio within
// one report: multiconn_MB/s ÷ plain_MB/s (1.0 = parity; loopback has no
// per-connection ceiling so parity, not a win, is the expectation). ok
// is false when either scenario is missing. Same machine, same run — no
// ThroughputComparable caveat applies.
func MultiConnSpeedup(rep Report) (ratio float64, ok bool) {
	var plain, multi float64
	for _, r := range rep.Results {
		switch r.Name {
		case "loopback_e2e":
			plain = r.MBPerSec
		case "loopback_e2e_multiconn":
			multi = r.MBPerSec
		}
	}
	if plain <= 0 || multi <= 0 {
		return 0, false
	}
	return multi / plain, true
}

// LoopbackE2EFlight is LoopbackE2E(quick, true) with the process-wide
// decision flight recorder enabled for the duration: the same dataset,
// config, and chunk lifecycle, plus a stage-span histogram observation
// at every read/net/write seam. Gated against the baseline like every
// scenario, and compared against loopback_e2e within the same report by
// FlightOverhead — the recorder-on cost must stay marginal, and the
// recorder-off cost of the instrumentation (one atomic load per seam)
// is asserted by loopback_e2e itself staying within its baseline.
func LoopbackE2EFlight(quick bool) func(b *testing.B) {
	inner := LoopbackE2E(quick, true)
	return func(b *testing.B) {
		flight.Enable(0)
		defer func() {
			flight.Disable()
			flight.Default().Reset()
		}()
		inner(b)
	}
}

// FlightOverhead returns the fractional throughput cost of the enabled
// recorder measured within one report: 1 − flight_MB/s ÷ plain_MB/s
// (negative when the flight run happened to be faster). ok is false when
// either scenario is missing. Same machine, same run — no
// ThroughputComparable caveat applies.
func FlightOverhead(rep Report) (frac float64, ok bool) {
	var plain, withFlight float64
	for _, r := range rep.Results {
		switch r.Name {
		case "loopback_e2e":
			plain = r.MBPerSec
		case "loopback_e2e_flight":
			withFlight = r.MBPerSec
		}
	}
	if plain <= 0 || withFlight <= 0 {
		return 0, false
	}
	return 1 - withFlight/plain, true
}

// MeasureMultiConnSpeedup re-runs the single-connection and striped
// loopback scenarios back to back `rounds` times and returns the
// largest goodput ratio observed. Noise (or another scenario's dirty
// pages still writing back) only deflates a pairing, so the maximum
// over a few fresh pairs is a sound lower bound on the real ratio.
// Callers use this to confirm a suspicious MultiConnSpeedup reading
// before failing a run on it.
func MeasureMultiConnSpeedup(quick bool, rounds int) (ratio float64, ok bool) {
	loopBytes := int64(64 << 20)
	if quick {
		loopBytes = 16 << 20
	}
	var best float64
	for i := 0; i < rounds; i++ {
		plain := toResult("loopback_e2e", loopBytes, testing.Benchmark(LoopbackE2E(quick, true)))
		multi := toResult("loopback_e2e_multiconn", loopBytes, testing.Benchmark(LoopbackE2EMultiConn(quick, 4)))
		if plain.MBPerSec <= 0 || multi.MBPerSec <= 0 {
			continue
		}
		if r := multi.MBPerSec / plain.MBPerSec; r > best {
			best = r
		}
	}
	if best <= 0 {
		return 0, false
	}
	return best, true
}

// MeasureFlightOverhead re-runs the plain and flight-enabled loopback
// scenarios back to back `rounds` times and returns the smallest
// fractional overhead observed. One pair of ~1 s benchmark runs carries
// several percent of scheduling noise — enough to cross a 5% gate in
// either direction — but noise only inflates a pairing, never deflates
// every pairing, so the minimum over a few pairs is a sound upper bound
// on the real cost. Callers use this to confirm a suspicious
// FlightOverhead reading before failing a run on it.
func MeasureFlightOverhead(quick bool, rounds int) (frac float64, ok bool) {
	loopBytes := int64(64 << 20)
	if quick {
		loopBytes = 16 << 20
	}
	best := math.Inf(1)
	for i := 0; i < rounds; i++ {
		plain := toResult("loopback_e2e", loopBytes, testing.Benchmark(LoopbackE2E(quick, true)))
		fl := toResult("loopback_e2e_flight", loopBytes, testing.Benchmark(LoopbackE2EFlight(quick)))
		if plain.MBPerSec <= 0 || fl.MBPerSec <= 0 {
			continue
		}
		if f := 1 - fl.MBPerSec/plain.MBPerSec; f < best {
			best = f
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}

// Ledger scenario sizing: the paper's headline dataset — 1000×1 GB at
// 256 KiB chunks — is a 4M-chunk session ledger. Full mode benches that
// directly; quick (CI) mode uses a quarter-million chunks, still big
// enough that O(chunks)-per-tick persistence and O(delta) journaling
// differ by orders of magnitude.
const (
	ledgerChunksPerFile = 4096 // 1 GiB per file at 256 KiB chunks
	ledgerTickChunks    = 1024 // ≈256 MB freshly committed per probe tick
)

func ledgerBenchChunks(quick bool) int {
	if quick {
		return 256 << 10
	}
	return 4 << 20
}

func ledgerBenchManifest(chunks int) workload.Manifest {
	return workload.LargeFiles(chunks/ledgerChunksPerFile, ledgerChunksPerFile*int64(chunkBytes))
}

// LedgerPersistTick measures one steady-state probe-tick persist of a
// fully-built session ledger: ledgerTickChunks chunks turn over per
// tick, and the tick serializes just the delta as journal records
// (O(delta)). The persisted bytes per tick are reported as
// persistbytes/op, which the CI gate holds against the baseline.
func LedgerPersistTick(quick bool) func(b *testing.B) {
	return func(b *testing.B) {
		chunks := ledgerBenchChunks(quick)
		m := ledgerBenchManifest(chunks)
		l := transfer.NewLedger("bench-ledger", chunkBytes, m, true)
		cb := int64(chunkBytes)
		for g := 0; g < chunks; g++ {
			l.Commit(uint32(g/ledgerChunksPerFile), int64(g%ledgerChunksPerFile)*cb, chunkBytes, uint32(g))
		}
		l.AppendSince() // drain the setup delta
		var persisted int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := i * ledgerTickChunks % chunks
			for j := 0; j < ledgerTickChunks; j++ {
				g := (start + j) % chunks
				fid := uint32(g / ledgerChunksPerFile)
				off := int64(g%ledgerChunksPerFile) * cb
				l.Invalidate(fid, off, cb)
				l.Commit(fid, off, chunkBytes, uint32(g))
			}
			persisted += int64(len(l.AppendSince()))
		}
		b.StopTimer()
		b.ReportMetric(float64(persisted)/float64(b.N), "persistbytes/op")
	}
}

// LedgerJournalReplay measures recovering a session from its persisted
// state: decode an empty snapshot, then replay a journal carrying
// one commit record per chunk — the worst-case crash-recovery load for
// the scenario size. MB/s is journal bytes replayed per second.
func LedgerJournalReplay(quick bool) func(b *testing.B) {
	return func(b *testing.B) {
		chunks := ledgerBenchChunks(quick)
		m := ledgerBenchManifest(chunks)
		l := transfer.NewLedger("bench-replay", chunkBytes, m, true)
		snap := l.EncodeV2()
		journal := l.JournalHeader()
		cb := int64(chunkBytes)
		for g := 0; g < chunks; g++ {
			l.Commit(uint32(g/ledgerChunksPerFile), int64(g%ledgerChunksPerFile)*cb, chunkBytes, uint32(g))
		}
		journal = append(journal, l.AppendSince()...)
		b.SetBytes(int64(len(journal)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			base, err := transfer.DecodeLedger(snap)
			if err != nil {
				b.Fatal(err)
			}
			if applied := base.ReplayJournal(journal); applied != chunks {
				b.Fatalf("replayed %d of %d records", applied, chunks)
			}
		}
	}
}

// Result is one benchmark's headline numbers.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// PersistedBytesPerOp is how many ledger bytes one persist tick
	// wrote (the ledger scenario's headline). Hardware-independent, so
	// the baseline gate always arms.
	PersistedBytesPerOp float64 `json:"persisted_bytes_per_op,omitempty"`
	// SyscallsPerOp is the wire.IOOps data-plane counter delta per op —
	// every read, frame write, frame read, and store write the engine
	// issued, counted in-process (strace-free). Counter-based and
	// hardware-independent, so the baseline gate always arms.
	SyscallsPerOp float64 `json:"syscalls_per_op,omitempty"`
}

// Report is the BENCH_engine.json document.
type Report struct {
	Schema  int      `json:"schema"`
	Go      string   `json:"go"`
	GOOS    string   `json:"goos"`
	GOARCH  string   `json:"goarch"`
	CPU     string   `json:"cpu,omitempty"`
	Cores   int      `json:"cores,omitempty"`
	Quick   bool     `json:"quick"`
	Results []Result `json:"benchmarks"`
}

// HostInfo identifies the machine a benchmark-style report came from,
// shared by BENCH_engine.json and the chaos matrix's BENCH_chaos.json
// so their gates can tell comparable hosts apart the same way.
type HostInfo struct {
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPU    string `json:"cpu,omitempty"`
	Cores  int    `json:"cores,omitempty"`
}

// Host snapshots the current machine's identity for report headers.
func Host() HostInfo {
	return HostInfo{
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPU:    cpuModel(),
		Cores:  runtime.NumCPU(),
	}
}

// cpuModel best-effort identifies the host CPU (linux only); empty when
// unknown. Throughput numbers are only comparable between identical
// CPUs, so Compare keys its MB/s gate on this.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// ThroughputComparable reports whether two reports' MB/s numbers came
// from the same hardware and can be gated against each other. The CPU
// model string alone is not enough — hypervisors mask it to a generic
// name ("Intel(R) Xeon(R) Processor @ 2.10GHz") shared by very
// different machines — so the logical core count must match too.
func ThroughputComparable(base, cur Report) bool {
	return base.CPU != "" && base.CPU == cur.CPU &&
		base.Cores > 0 && base.Cores == cur.Cores &&
		base.GOOS == cur.GOOS && base.GOARCH == cur.GOARCH
}

// toResult converts a testing.BenchmarkResult.
func toResult(name string, bytesPerOp int64, r testing.BenchmarkResult) Result {
	res := Result{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
	}
	if bytesPerOp > 0 && r.T > 0 {
		res.MBPerSec = float64(bytesPerOp) * float64(r.N) / r.T.Seconds() / 1e6
	}
	if v, ok := r.Extra["persistbytes/op"]; ok {
		res.PersistedBytesPerOp = v
	}
	if v, ok := r.Extra["syscalls/op"]; ok {
		res.SyscallsPerOp = v
	}
	return res
}

// Run executes the engine suite and assembles the report. quick keeps
// the end-to-end dataset small enough for CI.
func Run(quick bool) Report {
	loopBytes := int64(64 << 20)
	if quick {
		loopBytes = 16 << 20
	}
	h := Host()
	rep := Report{
		Schema: 1,
		Go:     h.Go,
		GOOS:   h.GOOS,
		GOARCH: h.GOARCH,
		CPU:    h.CPU,
		Cores:  h.Cores,
		Quick:  quick,
	}
	rep.Results = append(rep.Results,
		toResult("frame_encode", chunkBytes, testing.Benchmark(FrameEncode)),
		toResult("frame_decode", chunkBytes, testing.Benchmark(FrameDecode)),
		toResult("staging_handoff", chunkBytes, testing.Benchmark(StagingHandoff)),
		toResult("arena_get_release", 0, testing.Benchmark(ArenaGetRelease)),
		// Checksums on (the default) and off, so the gate tracks the
		// CRC-32C cost of the integrity/resume machinery.
		toResult("loopback_e2e", loopBytes, testing.Benchmark(LoopbackE2E(quick, true))),
		toResult("loopback_e2e_nocrc", loopBytes, testing.Benchmark(LoopbackE2E(quick, false))),
		// Striped data plane: 4 data connections fanning into one
		// receiver, vs the single-connection loopback_e2e above
		// (MultiConnSpeedup pairs them within the report).
		toResult("loopback_e2e_multiconn", loopBytes, testing.Benchmark(LoopbackE2EMultiConn(quick, 4))),
		toResult("loopback_e2e_flight", loopBytes, testing.Benchmark(LoopbackE2EFlight(quick))),
		// Ledger scenario (4M chunks full, 256k quick): the per-tick
		// persist cost of the journal delta, and the crash-recovery
		// journal replay.
		toResult("ledger_tick_v2", 0, testing.Benchmark(LedgerPersistTick(quick))),
		toResult("ledger_replay_v2", 0, testing.Benchmark(LedgerJournalReplay(quick))),
	)
	return rep
}

// Regression describes one gate violation.
type Regression struct {
	Bench  string
	Metric string
	Base   float64
	Cur    float64
}

func (r Regression) String() string {
	if r.Base == 0 && r.Cur == 0 {
		return r.Bench + ": " + r.Metric // a missing scenario, not a number
	}
	return fmt.Sprintf("%s: %s regressed %.4g → %.4g (%.1f%%)",
		r.Bench, r.Metric, r.Base, r.Cur, 100*(r.Cur/r.Base-1))
}

// Compare gates cur against base: a benchmark regresses when its
// throughput drops by more than tol (fraction, e.g. 0.20) or its
// allocs/op rise by more than tol. Allocation counts are
// hardware-independent and always gated, with a small absolute slack so
// single-digit scheduling jitter on near-zero-alloc benchmarks cannot
// trip the gate. MB/s is only meaningful against a baseline measured on
// the same CPU, so the throughput gate arms only when
// ThroughputComparable holds — a baseline committed from one machine
// cannot flag a differently-sized CI runner as a regression. A scenario
// present in only one report is a finding too: a gate that skips what it
// cannot match would pass a renamed or dropped scenario unmeasured.
func Compare(base, cur Report, tol float64) []Regression {
	baseBy := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseBy[r.Name] = r
	}
	gateThroughput := ThroughputComparable(base, cur)
	var regs []Regression
	for _, c := range cur.Results {
		b, ok := baseBy[c.Name]
		if !ok {
			regs = append(regs, Regression{Bench: c.Name, Metric: "scenario missing from the baseline"})
			continue
		}
		delete(baseBy, c.Name)
		if gateThroughput && b.MBPerSec > 0 && c.MBPerSec < b.MBPerSec*(1-tol) {
			regs = append(regs, Regression{c.Name, "mb_per_s", b.MBPerSec, c.MBPerSec})
		}
		allocGate := b.AllocsPerOp*(1+tol) + 4
		if c.AllocsPerOp > allocGate {
			regs = append(regs, Regression{c.Name, "allocs_per_op", b.AllocsPerOp, c.AllocsPerOp})
		}
		// Persisted bytes per tick are deterministic (encoding size, not
		// speed), so like allocs they gate on every runner. The absolute
		// slack absorbs varint-width jitter on near-empty deltas.
		persistGate := b.PersistedBytesPerOp*(1+tol) + 64
		if b.PersistedBytesPerOp > 0 && c.PersistedBytesPerOp > persistGate {
			regs = append(regs, Regression{c.Name, "persisted_bytes_per_op", b.PersistedBytesPerOp, c.PersistedBytesPerOp})
		}
		// The data-plane op counter is deterministic modulo batching
		// jitter (partial drains at stage boundaries), so like allocs it
		// gates on every runner with a small absolute slack.
		sysGate := b.SyscallsPerOp*(1+tol) + 16
		if b.SyscallsPerOp > 0 && c.SyscallsPerOp > sysGate {
			regs = append(regs, Regression{c.Name, "syscalls_per_op", b.SyscallsPerOp, c.SyscallsPerOp})
		}
	}
	for _, b := range base.Results {
		if _, unmatched := baseBy[b.Name]; unmatched {
			regs = append(regs, Regression{Bench: b.Name, Metric: "scenario missing from this run"})
		}
	}
	return regs
}
