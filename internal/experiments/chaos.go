package experiments

// The adversarial scenario matrix: declarative cells composing the
// internal/chaos fault axes (Markov link model, flaky destination disk,
// hostile peer) with a workload shape, executed over the live loopback
// engine with seeded determinism. Each cell checks one invariant —
// every transfer either completes byte-correct or fails cleanly and
// resumes re-sending <10% of already-committed bytes, with no goroutine
// or arena-lease leaks — and contributes per-cell aggregates (goodput,
// re-sent bytes, ledger bytes persisted, controller convergence,
// detection/recovery latencies) to a BENCH_chaos.json report. Surfaced
// by `automdt-bench -exp chaos -quick|-full` and the nightly CI
// robustness battery.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"time"

	"automdt/internal/chaos"
	"automdt/internal/env"
	"automdt/internal/flight"
	"automdt/internal/fsim"
	"automdt/internal/marlin"
	"automdt/internal/sched"
	"automdt/internal/transfer"
	"automdt/internal/workload"
)

// ChaosLoad names a workload shape used as a matrix axis.
type ChaosLoad struct {
	Name string        `json:"name"`
	Spec workload.Spec `json:"spec"`
}

// ChaosCell is one scenario: the composition of one value from each
// fault axis with a workload, plus the cell's expectations.
type ChaosCell struct {
	Name string          `json:"name"`
	Link chaos.LinkModel `json:"link"`
	Disk chaos.DiskFault `json:"disk"`
	Peer chaos.PeerFault `json:"peer"`
	Load ChaosLoad       `json:"load"`
	// WantFail marks a cell whose faults make completion impossible
	// (e.g. an ENOSPC budget below the dataset size); it passes by
	// failing cleanly on every attempt while keeping the ledger loadable.
	WantFail bool `json:"want_fail,omitempty"`
	// MinReplans asserts targeted-recovery activity: the cell fails
	// unless at least this many re-plan events land in the flight trace.
	MinReplans int `json:"min_replans,omitempty"`
	// Fleet runs the cell against a receiver fleet of this many endpoints
	// driven by the scheduler, and the injected adversary becomes a
	// WHOLE-endpoint kill: once a session is demonstrably mid-transfer,
	// its endpoint dies and every session it hosted must fail over to a
	// live sibling (resuming through the shared store's ledger). The Disk
	// and Peer axes are ignored for fleet cells — the endpoint kill IS
	// the peer fault. 0 keeps the classic single-receiver loopback cell.
	Fleet int `json:"fleet,omitempty"`
	// MinReplaces asserts failover activity on a fleet cell: the cell
	// fails unless at least this many re-place events for its sessions
	// land in the fleet flight trace.
	MinReplaces int `json:"min_replaces,omitempty"`
	// MaxAttempts bounds the run/resume loop (default 8).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// Timeout bounds the cell's wall clock (default 60s).
	Timeout time.Duration `json:"-"`
	// Seed drives every random stream in the cell (derived from the
	// matrix seed and cell name when zero).
	Seed int64 `json:"seed"`
}

// ChaosCellResult is one cell's outcome and aggregates.
type ChaosCellResult struct {
	Cell string `json:"cell"`
	Link string `json:"link"`
	Disk string `json:"disk"`
	Peer string `json:"peer"`
	Load string `json:"load"`
	Seed int64  `json:"seed"`

	Pass    bool   `json:"pass"`
	Failure string `json:"failure,omitempty"`

	Completed  bool    `json:"completed"`
	WantFail   bool    `json:"want_fail,omitempty"`
	Attempts   int     `json:"attempts"`
	DurationMs float64 `json:"duration_ms"`

	// Aggregates.
	BytesTotal      int64   `json:"bytes_total"`
	GoodputMbps     float64 `json:"goodput_mbps,omitempty"`
	WireBytes       int64   `json:"wire_bytes,omitempty"`
	ResentBytes     int64   `json:"resent_bytes,omitempty"`
	ResentCommitted int64   `json:"resent_committed_bytes,omitempty"`
	LedgerBytes     int64   `json:"ledger_bytes,omitempty"`
	ReplanEvents    int     `json:"replan_events,omitempty"`
	ReplaceEvents   int     `json:"replace_events,omitempty"`
	Failovers       int64   `json:"failovers,omitempty"`
	LinkKills       int64   `json:"link_kills,omitempty"`
	PeerKills       int     `json:"peer_kills,omitempty"`
	BitFlips        int64   `json:"bit_flips,omitempty"`
	DiskFaults      int64   `json:"disk_faults,omitempty"`
	ConvergenceMs   float64 `json:"convergence_ms,omitempty"`
	DetectMs        float64 `json:"detect_ms,omitempty"`
	RecoverMs       float64 `json:"recover_ms,omitempty"`
}

// ChaosReport is the BENCH_chaos.json document.
type ChaosReport struct {
	Schema int               `json:"schema"`
	Host   HostInfo          `json:"host"`
	Mode   string            `json:"mode"`
	Seed   int64             `json:"seed"`
	Pass   bool              `json:"pass"`
	Cells  []ChaosCellResult `json:"cells"`
}

// HostInfo identifies the machine a BENCH_chaos.json report came from,
// so reports from different hosts can be told apart.
type HostInfo struct {
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPU    string `json:"cpu,omitempty"`
	Cores  int    `json:"cores,omitempty"`
}

// thisHost snapshots the current machine's identity for the report header.
func thisHost() HostInfo {
	return HostInfo{
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPU:    cpuModel(),
		Cores:  runtime.NumCPU(),
	}
}

// cpuModel best-effort identifies the host CPU (linux only); empty when
// unknown.
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

// ChaosMatrix is a named set of cells plus the seed their per-cell
// streams derive from.
type ChaosMatrix struct {
	Name  string
	Seed  int64
	Cells []ChaosCell
}

// CrossChaosCells builds the cross-product of the axes. A disk whose
// ENOSPC budget cannot hold the dataset (plus ledger headroom) makes the
// cell a WantFail cell; a peer that kills or partitions makes the cell
// assert at least one re-plan event.
func CrossChaosCells(links []chaos.LinkModel, disks []chaos.DiskFault,
	peers []chaos.PeerFault, loads []ChaosLoad) []ChaosCell {
	var cells []ChaosCell
	for _, ld := range loads {
		m, err := ld.Spec.Build()
		total := int64(0)
		if err == nil {
			total = m.TotalBytes()
		}
		for _, ln := range links {
			for _, d := range disks {
				for _, p := range peers {
					cell := ChaosCell{
						Name: strings.Join([]string{axisName(ln.Name), axisName(d.Name),
							axisName(p.Name), axisName(ld.Name)}, "/"),
						Link: ln, Disk: d, Peer: p, Load: ld,
					}
					if d.CapacityBytes > 0 && d.CapacityBytes < total*3/2 {
						cell.WantFail = true
					}
					if !cell.WantFail && (p.KillDataAfterBytes > 0 || p.PartitionAfterBytes > 0) {
						cell.MinReplans = 1
					}
					cells = append(cells, cell)
				}
			}
		}
	}
	return cells
}

func axisName(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// chaosSessionID derives a valid, unique session id from a cell name.
func chaosSessionID(cell string, seed int64) string {
	h := fnv.New64a()
	io.WriteString(h, cell) //nolint:errcheck
	id := fmt.Sprintf("chaos-%x-%x", h.Sum64(), uint64(seed))
	if !fsim.ValidSessionID(id) {
		panic("chaos: derived session id invalid: " + id)
	}
	return id
}

// cellSeed derives a cell's seed from the matrix seed and cell name, so
// every cell replays independently of matrix order.
func cellSeed(matrixSeed int64, cell string) int64 {
	h := fnv.New64a()
	io.WriteString(h, cell) //nolint:errcheck
	return matrixSeed ^ int64(h.Sum64())
}

// RunChaosCell executes one cell: run the transfer under the cell's
// faults, resuming after clean failures, then judge the invariant.
// Fleet cells (Fleet > 0) take the whole-endpoint-kill path instead.
func RunChaosCell(ctx context.Context, c ChaosCell) ChaosCellResult {
	if c.Fleet > 0 {
		return runFleetChaosCell(ctx, c)
	}
	res := ChaosCellResult{
		Cell: c.Name, Link: axisName(c.Link.Name), Disk: axisName(c.Disk.Name),
		Peer: axisName(c.Peer.Name), Load: axisName(c.Load.Name),
		Seed: c.Seed, WantFail: c.WantFail,
	}
	fail := func(format string, args ...any) ChaosCellResult {
		res.Pass = false
		res.Failure = fmt.Sprintf(format, args...)
		return res
	}

	manifest, err := c.Load.Spec.Build()
	if err != nil {
		return fail("bad workload spec: %v", err)
	}
	total := manifest.TotalBytes()
	res.BytesTotal = total

	src := fsim.NewSyntheticStore()
	dstInner := fsim.NewSyntheticStore()
	dstInner.Verify = true
	dst, err := chaos.NewFlakyStore(dstInner, c.Disk, c.Seed+1)
	if err != nil {
		return fail("flaky store: %v", err)
	}
	link, err := chaos.NewLink(c.Link, c.Seed+2)
	if err != nil {
		return fail("link model: %v", err)
	}
	peer := chaos.NewPeer(c.Peer, c.Seed+3)

	if !flight.Active() {
		flight.Enable(512)
		defer flight.Default().Disable()
	}

	arena := transfer.NewArena(64 << 20)
	sid := chaosSessionID(c.Name, c.Seed)
	cfg := transfer.Config{
		ChunkBytes:       64 << 10,
		SenderBufBytes:   8 << 20,
		ReceiverBufBytes: 8 << 20,
		MaxThreads:       16,
		ProbeInterval:    50 * time.Millisecond,
		InitialThreads:   2,
		Conns:            3,
		SessionID:        sid,
		Arena:            arena,
		WrapConn: func(kind string, cn net.Conn) net.Conn {
			cn = peer.WrapConn(kind, cn)
			if kind == "data" {
				cn = link.WrapConn(cn)
			}
			return cn
		},
	}

	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	maxAttempts := c.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 8
	}
	cctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	goroutinesBefore := runtime.NumGoroutine()
	start := time.Now()
	var final *transfer.Result
	var committedBefore int64
	var attemptEnds []time.Time
	var lastErr error
	for attempt := 1; attempt <= maxAttempts && cctx.Err() == nil; attempt++ {
		res.Attempts = attempt
		committedBefore = 0
		if l, lerr := transfer.LoadSessionLedger(dst, sid); lerr == nil {
			committedBefore = l.CommittedBytes()
		}
		r, rerr := transfer.Loopback(cctx, cfg, manifest, src, dst, marlin.New())
		attemptEnds = append(attemptEnds, time.Now())
		if rerr == nil {
			final = r
			break
		}
		lastErr = rerr
		// Let a partition heal and the loopback listener free its port.
		select {
		case <-cctx.Done():
		case <-time.After(60 * time.Millisecond):
		}
	}
	end := time.Now()
	res.DurationMs = float64(end.Sub(start)) / float64(time.Millisecond)
	res.LedgerBytes = dst.LedgerBytes()
	res.DiskFaults = dst.Faults()
	res.LinkKills = link.Kills()
	res.PeerKills = peer.Kills()
	res.BitFlips = peer.Flips()

	replans := flight.Default().Dump("sender:"+sid, 0)
	var replanTimes []time.Time
	for _, ev := range replans {
		if ev.Kind == flight.KindReplan {
			replanTimes = append(replanTimes, time.Unix(0, ev.UnixNano))
		}
	}
	res.ReplanEvents = len(replanTimes)
	res.ConvergenceMs = chaosConvergenceMs(flight.Default().Dump("ctrl:"+sid, 0))
	res.DetectMs, res.RecoverMs = chaosLatencies(peer.Injections(), replanTimes, attemptEnds, final != nil, end)

	if final != nil {
		res.Completed = true
		res.GoodputMbps = final.AvgMbps
		res.WireBytes = final.WireBytes
		res.ResentBytes = final.ResentBytes
		// Bytes the resumed attempt sent a first time (wire minus in-attempt
		// recovery re-sends) beyond what was still outstanding: that excess
		// is committed data the resume failed to skip. In-attempt re-plans
		// of chunks that never committed are recovery, not waste.
		if over := (final.WireBytes - final.ResentBytes) - (total - committedBefore); over > 0 {
			res.ResentCommitted = over
		}
	}

	// Judge the invariant.
	if verrs := dstInner.Errors(); len(verrs) > 0 {
		return fail("destination corruption: %v", verrs[0])
	}
	if c.WantFail {
		if final != nil {
			return fail("expected clean failure but the transfer completed")
		}
		if cctx.Err() != nil && lastErr == nil {
			return fail("timed out without a clean failure")
		}
		if _, lerr := transfer.LoadSessionLedger(dst, sid); lerr != nil && !errors.Is(lerr, os.ErrNotExist) {
			return fail("ledger unloadable after clean failure: %v", lerr)
		}
	} else {
		if final == nil {
			if cctx.Err() != nil {
				return fail("cell timed out after %d attempts (last error: %v)", res.Attempts, lastErr)
			}
			return fail("did not complete in %d attempts: %v", res.Attempts, lastErr)
		}
		if res.ResentCommitted > total/10 {
			return fail("resume re-sent %d committed bytes (>10%% of %d)", res.ResentCommitted, total)
		}
	}
	if res.ReplanEvents < c.MinReplans {
		return fail("expected ≥%d re-plan events in the flight trace, saw %d", c.MinReplans, res.ReplanEvents)
	}

	// Leak checks: the dedicated arena must drain its leases and the
	// goroutine count must settle back to the pre-cell level.
	if leaked, inUse := arenaSettles(arena); !leaked {
		return fail("arena lease leak: %d bytes still leased", inUse)
	}
	if !goroutinesSettle(goroutinesBefore + 2) {
		return fail("goroutine leak: %d before, %d after settle", goroutinesBefore, runtime.NumGoroutine())
	}

	res.Pass = true
	return res
}

// runFleetChaosCell executes a fleet cell: the scheduler drives a batch
// of concurrent sessions against a receiver fleet through the cell's
// chaos link, one whole endpoint is killed once a session it hosts is
// demonstrably mid-transfer, and the judge demands byte-correct
// completion on the surviving siblings, re-place evidence in the fleet
// flight trace, <10% committed-byte re-send on the resumed victims, and
// settled arena leases and goroutines.
func runFleetChaosCell(ctx context.Context, c ChaosCell) ChaosCellResult {
	res := ChaosCellResult{
		Cell: c.Name, Link: axisName(c.Link.Name), Disk: axisName(c.Disk.Name),
		Peer: "kill-endpoint", Load: axisName(c.Load.Name), Seed: c.Seed,
	}
	fail := func(format string, args ...any) ChaosCellResult {
		res.Pass = false
		res.Failure = fmt.Sprintf(format, args...)
		return res
	}

	manifest, err := c.Load.Spec.Build()
	if err != nil {
		return fail("bad workload spec: %v", err)
	}
	const jobs = 4
	perJob := manifest.TotalBytes()
	res.BytesTotal = perJob * jobs

	link, err := chaos.NewLink(c.Link, c.Seed+2)
	if err != nil {
		return fail("link model: %v", err)
	}

	if !flight.Active() {
		flight.Enable(512)
		defer flight.Default().Disable()
	}

	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 120 * time.Second
	}
	cctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	goroutinesBefore := runtime.NumGoroutine()
	arena := transfer.NewArena(256 << 20)
	store := fsim.NewSyntheticStore()
	store.Verify = true
	fr := &sched.FleetRunner{
		Size:     c.Fleet,
		Store:    store,
		Receiver: transfer.Config{Arena: arena},
	}
	s, err := sched.New(sched.Config{
		Budget:    [env.StageCount]int{16, 16, 16, 16},
		MaxActive: jobs,
		Runner:    fr,
	})
	if err != nil {
		fr.Close()
		return fail("scheduler: %v", err)
	}
	closeAll := func() {
		s.Close()
		fr.Close()
	}

	// All jobs share the manifest (name-derived synthetic content agrees
	// by construction) but get distinct scheduler-assigned sessions, so
	// their ledgers never collide in the shared store.
	start := time.Now()
	ids := make([]int64, jobs)
	for i := range ids {
		id, serr := s.Submit(sched.JobSpec{
			Name:     "chaos-fleet",
			Manifest: manifest,
			// The lossy link can kill every data connection of an unlucky
			// attempt outright (on top of the endpoint kill each victim
			// spends one retry on), so the striped sender and the retry
			// headroom match the single-receiver cells' attempt budget.
			MaxRetries: 8,
			Transfer: transfer.Config{
				ChunkBytes:     64 << 10,
				InitialThreads: 2,
				MaxThreads:     4,
				Conns:          3,
				ProbeInterval:  25 * time.Millisecond,
				Arena:          arena,
				Shaping:        transfer.Shaping{LinkMbps: 60},
				WrapConn: func(kind string, cn net.Conn) net.Conn {
					if kind == "data" {
						cn = link.WrapConn(cn)
					}
					return cn
				},
			},
		})
		if serr != nil {
			closeAll()
			return fail("submit: %v", serr)
		}
		ids[i] = id
	}

	// Kill the endpoint hosting a session that is demonstrably
	// mid-transfer; the window's upper bound keeps the victim from
	// finishing in the gap between selection and kill.
	var victim string
	for victim == "" {
		if cctx.Err() != nil {
			closeAll()
			return fail("no session reached mid-transfer progress before the cell timeout")
		}
		for _, id := range ids {
			st, serr := s.Status(id)
			if serr != nil {
				continue
			}
			if st.State == "running" && st.CommittedBytes >= perJob/8 && st.CommittedBytes < perJob/2 {
				if ep := fr.EndpointOf(st.SessionID); ep != "" {
					victim = ep
					break
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	committedBefore := make(map[int64]int64)
	for _, id := range ids {
		st, serr := s.Status(id)
		if serr == nil && st.State == "running" && st.CommittedBytes < perJob &&
			fr.EndpointOf(st.SessionID) == victim {
			committedBefore[id] = st.CommittedBytes
		}
	}
	killAt := time.Now()
	if kerr := fr.KillEndpoint(victim); kerr != nil {
		closeAll()
		return fail("kill endpoint %s: %v", victim, kerr)
	}
	res.PeerKills = 1

	if derr := s.Drain(cctx); derr != nil {
		closeAll()
		return fail("drain after endpoint kill: %v", derr)
	}
	end := time.Now()
	res.DurationMs = float64(end.Sub(start)) / float64(time.Millisecond)
	res.LinkKills = link.Kills()
	res.Attempts = 1

	sessions := make(map[int64]string, jobs)
	for _, id := range ids {
		st, serr := s.Status(id)
		if serr != nil {
			closeAll()
			return fail("job %d status: %v", id, serr)
		}
		if st.State != "done" {
			closeAll()
			return fail("job %d state %s after drain (%s)", id, st.State, st.Error)
		}
		sessions[id] = st.SessionID
		if st.Attempts > res.Attempts {
			res.Attempts = st.Attempts
		}
	}
	res.Completed = true
	if sec := end.Sub(start).Seconds(); sec > 0 {
		res.GoodputMbps = float64(res.BytesTotal) * 8 / 1e6 / sec
	}

	// Flight evidence, filtered to this cell's sessions: the fleet flight
	// source is process-global and earlier cells also write to it.
	mine := func(note string) bool {
		for _, sid := range sessions {
			if sid != "" && strings.Contains(note, "session="+sid+" ") {
				return true
			}
		}
		return false
	}
	var replaceTimes []time.Time
	for _, ev := range flight.Default().Dump(sched.FleetSource, 0) {
		if ev.Kind == flight.KindReplace && mine(ev.Note) {
			replaceTimes = append(replaceTimes, time.Unix(0, ev.UnixNano))
		}
	}
	res.ReplaceEvents = len(replaceTimes)
	for _, sid := range sessions {
		for _, ev := range flight.Default().Dump("sender:"+sid, 0) {
			if ev.Kind == flight.KindReplan {
				res.ReplanEvents++
			}
		}
	}
	for _, t := range replaceTimes {
		if !t.Before(killAt) {
			d := float64(t.Sub(killAt)) / float64(time.Millisecond)
			if res.DetectMs == 0 || d < res.DetectMs {
				res.DetectMs = d
			}
		}
	}
	res.RecoverMs = float64(end.Sub(killAt)) / float64(time.Millisecond)
	res.Failovers = fr.Status().Failovers

	// Committed bytes a resumed victim failed to inherit through the
	// shared store's ledger: the failover analogue of ResentCommitted.
	var beforeTotal int64
	for id, before := range committedBefore {
		st, serr := s.Status(id)
		if serr != nil || st.Resumes < 1 || before == 0 {
			continue
		}
		beforeTotal += before
		if over := before - st.SkippedBytes; over > 0 {
			res.ResentCommitted += over
		}
	}

	// Judge: teardown first so leak checks see the settled picture.
	closeAll()
	if verrs := store.Errors(); len(verrs) > 0 {
		return fail("destination corruption: %v", verrs[0])
	}
	if res.ReplaceEvents < c.MinReplaces {
		return fail("expected ≥%d re-place events in the fleet flight trace, saw %d", c.MinReplaces, res.ReplaceEvents)
	}
	if res.Failovers < int64(c.MinReplaces) {
		return fail("fleet failover counter %d under the %d floor", res.Failovers, c.MinReplaces)
	}
	if beforeTotal > 0 && res.ResentCommitted > beforeTotal/10 {
		return fail("failover re-sent %d of %d pre-kill committed bytes (>10%%)", res.ResentCommitted, beforeTotal)
	}
	if leaked, inUse := arenaSettles(arena); !leaked {
		return fail("arena lease leak: %d bytes still leased", inUse)
	}
	if !goroutinesSettle(goroutinesBefore + 2) {
		return fail("goroutine leak: %d before, %d after settle", goroutinesBefore, runtime.NumGoroutine())
	}

	res.Pass = true
	return res
}

// chaosConvergenceMs derives controller convergence from the cell's
// decision trace: the time from the first decision to the last one that
// still differed from the final concurrency tuple (0 with ≤1 decisions).
func chaosConvergenceMs(events []flight.Event) float64 {
	var decisions []flight.Event
	for _, ev := range events {
		if ev.Kind == flight.KindDecision {
			decisions = append(decisions, ev)
		}
	}
	if len(decisions) < 2 {
		return 0
	}
	finalN := decisions[len(decisions)-1].Chosen.N
	last := -1
	for i, ev := range decisions {
		if ev.Chosen.N != finalN {
			last = i
		}
	}
	if last < 0 {
		return 0
	}
	return float64(decisions[last].UnixNano-decisions[0].UnixNano) / float64(time.Millisecond)
}

// chaosLatencies derives fault-handling latencies from the first peer
// injection: detection is the gap to the first re-plan event (or to the
// end of the attempt the injection landed in, when the whole attempt
// failed instead), recovery the gap to final completion.
func chaosLatencies(injections, replans []time.Time, attemptEnds []time.Time,
	completed bool, end time.Time) (detectMs, recoverMs float64) {
	if len(injections) == 0 {
		return 0, 0
	}
	inj := injections[0]
	for _, t := range replans {
		if !t.Before(inj) {
			detectMs = float64(t.Sub(inj)) / float64(time.Millisecond)
			break
		}
	}
	if detectMs == 0 {
		for _, t := range attemptEnds {
			if !t.Before(inj) {
				detectMs = float64(t.Sub(inj)) / float64(time.Millisecond)
				break
			}
		}
	}
	if completed {
		recoverMs = float64(end.Sub(inj)) / float64(time.Millisecond)
	}
	return detectMs, recoverMs
}

// arenaSettles waits for the arena's leased bytes to drain (receiver
// commit workers release asynchronously after the run returns).
func arenaSettles(a *transfer.Arena) (ok bool, inUse int64) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		inUse = a.Stats().InUseBytes
		if inUse == 0 {
			return true, 0
		}
		if time.Now().After(deadline) {
			return false, inUse
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// goroutinesSettle waits for the goroutine count to drop to max.
func goroutinesSettle(max int) bool {
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= max {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// RunChaosMatrix executes every cell sequentially (cells share the
// process-wide flight recorder and the goroutine-leak baseline, so
// parallel cells would blur each other's forensics) and assembles the
// report. log, when non-nil, receives one line per completed cell.
func RunChaosMatrix(ctx context.Context, m ChaosMatrix, mode string, log io.Writer) ChaosReport {
	rep := ChaosReport{
		Schema: 1,
		Host:   thisHost(),
		Mode:   mode,
		Seed:   m.Seed,
		Pass:   true,
	}
	if !flight.Active() {
		flight.Enable(512)
		defer flight.Default().Disable()
	}
	for _, c := range m.Cells {
		if c.Seed == 0 {
			c.Seed = cellSeed(m.Seed, c.Name)
		}
		r := RunChaosCell(ctx, c)
		rep.Cells = append(rep.Cells, r)
		if !r.Pass {
			rep.Pass = false
		}
		if log != nil {
			status := "PASS"
			if !r.Pass {
				status = "FAIL " + r.Failure
			}
			fmt.Fprintf(log, "chaos %-44s %6.0fms attempts=%d replans=%d %s\n",
				r.Cell, r.DurationMs, r.Attempts, r.ReplanEvents, status)
		}
		if ctx.Err() != nil {
			rep.Pass = false
			break
		}
	}
	return rep
}

// PrintChaosReport renders the per-cell aggregate table.
func PrintChaosReport(w io.Writer, rep ChaosReport) {
	fmt.Fprintf(w, "Adversarial scenario matrix (%s, seed %d) — %d cells\n", rep.Mode, rep.Seed, len(rep.Cells))
	fmt.Fprintf(w, "%-44s %-6s %-8s %-9s %-9s %-9s %-8s %-8s %-8s\n",
		"cell (link/disk/peer/load)", "pass", "attempts", "goodput", "resent", "ledger", "replans", "detect", "converge")
	for _, c := range rep.Cells {
		pass := "ok"
		if !c.Pass {
			pass = "FAIL"
		}
		fmt.Fprintf(w, "%-44s %-6s %-8d %7.1fMb %7.2f%% %7.1fK %-8d %6.0fms %6.0fms\n",
			c.Cell, pass, c.Attempts, c.GoodputMbps,
			100*float64(c.ResentCommitted+c.ResentBytes)/float64(max64(c.BytesTotal, 1)),
			float64(c.LedgerBytes)/1024, c.ReplanEvents, c.DetectMs, c.ConvergenceMs)
		if c.Failure != "" {
			fmt.Fprintf(w, "    ↳ %s\n", c.Failure)
		}
	}
	verdict := "PASS"
	if !rep.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "matrix verdict: %s\n", verdict)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// --- Standard axes -----------------------------------------------------

// ChaosLinkAxes returns the link-model axis: clean, a jittery
// Markov-modulated link, and a lossy one whose bad state drops whole
// connections.
func ChaosLinkAxes() []chaos.LinkModel {
	return []chaos.LinkModel{
		{Name: "clean"},
		{
			Name: "jittery",
			States: []chaos.LinkState{
				{Name: "calm", BandwidthMbps: 800, JitterMs: 0.2},
				{Name: "rough", BandwidthMbps: 200, JitterMs: 2},
			},
			Trans:  [][]float64{{0.8, 0.2}, {0.5, 0.5}},
			StepMs: 50,
		},
		{
			Name: "lossy",
			// The good state drops too (short quick-mode runs may never
			// leave it); the bad state merely drops harder.
			States: []chaos.LinkState{
				{Name: "good", BandwidthMbps: 800, DropPerMB: 0.2},
				{Name: "bad", BandwidthMbps: 400, JitterMs: 1, DropPerMB: 0.6},
			},
			Trans:  [][]float64{{0.7, 0.3}, {0.6, 0.4}},
			StepMs: 50,
		},
	}
}

// ChaosDiskAxes returns the destination-disk axis for the full matrix.
func ChaosDiskAxes() []chaos.DiskFault {
	return []chaos.DiskFault{
		{},
		{Name: "slow", WriteDelayMs: 0.1},
		{Name: "flaky", FailEveryN: 97, ShortEveryN: 131},
	}
}

// ChaosPeerAxes returns the hostile-peer axis for the full matrix.
// total sizes the kill/partition trigger points mid-transfer.
func ChaosPeerAxes(total int64) []chaos.PeerFault {
	return []chaos.PeerFault{
		{},
		{Name: "kill-conn", KillDataAfterBytes: total / 3, KillCount: 1},
		{Name: "partition", PartitionAfterBytes: total / 2, PartitionMs: 150},
		{Name: "corrupt", FlipPerMB: 0.5},
	}
}

// quickChaosLoad is the small mixed dataset every quick cell transfers.
func quickChaosLoad() ChaosLoad {
	return ChaosLoad{
		Name: "mixed-4mb",
		Spec: workload.Spec{Kind: "mixed", TotalBytes: 4 << 20, MinBytes: 32 << 10, MaxBytes: 512 << 10, Seed: 11},
	}
}

// QuickChaosMatrix is the PR-blocking 3×3 sub-matrix: three link models
// crossed with three adversaries (benign, flaky disk, connection-killing
// peer) over a small mixed dataset. Runs well under a minute.
func QuickChaosMatrix(seed int64) ChaosMatrix {
	load := quickChaosLoad()
	total := int64(4 << 20)
	adversaries := []struct {
		disk chaos.DiskFault
		peer chaos.PeerFault
	}{
		{},
		{disk: chaos.DiskFault{Name: "flaky", FailEveryN: 97, ShortEveryN: 131}},
		{peer: chaos.PeerFault{Name: "kill-conn", KillDataAfterBytes: total / 3, KillCount: 1}},
	}
	var cells []ChaosCell
	for _, ln := range ChaosLinkAxes() {
		for _, adv := range adversaries {
			cell := ChaosCell{
				Name: strings.Join([]string{axisName(ln.Name), axisName(adv.disk.Name),
					axisName(adv.peer.Name), load.Name}, "/"),
				Link: ln, Disk: adv.disk, Peer: adv.peer, Load: load,
			}
			if adv.peer.KillDataAfterBytes > 0 {
				cell.MinReplans = 1
			}
			cells = append(cells, cell)
		}
	}
	// Fleet cell: a whole-endpoint kill under the lossy link. The failover
	// path — re-place on a live sibling, ledger handoff through the shared
	// store — runs inside the PR-blocking battery, not just the sched
	// package's own tests.
	for _, ln := range ChaosLinkAxes() {
		if ln.Name != "lossy" {
			continue
		}
		cells = append(cells, ChaosCell{
			Name:        strings.Join([]string{ln.Name, "none", "kill-endpoint", load.Name}, "/"),
			Link:        ln,
			Load:        load,
			Fleet:       3,
			MinReplaces: 1,
		})
	}
	return ChaosMatrix{Name: "quick", Seed: seed, Cells: cells}
}

// FullChaosMatrix is the nightly battery: the full cross-product of the
// standard axes over the mixed dataset, an ENOSPC clean-failure column,
// and a pathological-workload sweep (many tiny files, one huge file, a
// deep tree) against the benign and connection-killing adversaries.
func FullChaosMatrix(seed int64) ChaosMatrix {
	load := ChaosLoad{
		Name: "mixed-16mb",
		Spec: workload.Spec{Kind: "mixed", TotalBytes: 16 << 20, MinBytes: 32 << 10, MaxBytes: 1 << 20, Seed: 11},
	}
	total := int64(16 << 20)
	cells := CrossChaosCells(ChaosLinkAxes(), ChaosDiskAxes(), ChaosPeerAxes(total), []ChaosLoad{load})
	// Attempts are cheap (~100-300ms each) next to the 60s cell timeout,
	// and the heavier fault mixes — a corrupting peer re-rolls its flip
	// dice on every re-plan — legitimately need the fail/resume loop more
	// than the default 8 times on an unlucky walk.
	for i := range cells {
		cells[i].MaxAttempts = 20
	}

	// ENOSPC column: the budget cannot hold the dataset, so every cell
	// must fail cleanly with a loadable ledger (CrossChaosCells marks
	// them WantFail).
	cells = append(cells, CrossChaosCells(
		[]chaos.LinkModel{{Name: "clean"}},
		[]chaos.DiskFault{{Name: "enospc", CapacityBytes: total / 2}},
		[]chaos.PeerFault{{}},
		[]ChaosLoad{load})...)

	// Pathological manifests: metadata-heavy shapes under a benign and a
	// connection-killing adversary.
	pathological := []ChaosLoad{
		{Name: "tiny-100k", Spec: workload.Spec{Kind: "large", Count: 100_000, SizeBytes: 64}},
		{Name: "huge-one", Spec: workload.Spec{Kind: "large", Count: 1, SizeBytes: 192 << 20}},
		{Name: "deep-tree", Spec: workload.Spec{Kind: "tree", Count: 2000, Depth: 128, SizeBytes: 4 << 10}},
	}
	for _, ld := range pathological {
		m, err := ld.Spec.Build()
		if err != nil {
			continue
		}
		ltotal := m.TotalBytes()
		peers := []chaos.PeerFault{
			{},
			{Name: "kill-conn", KillDataAfterBytes: ltotal / 3, KillCount: 1},
		}
		sub := CrossChaosCells([]chaos.LinkModel{{Name: "clean"}},
			[]chaos.DiskFault{{}}, peers, []ChaosLoad{ld})
		for i := range sub {
			sub[i].Timeout = 5 * time.Minute
			sub[i].MaxAttempts = 10
		}
		cells = append(cells, sub...)
	}
	return ChaosMatrix{Name: "full", Seed: seed, Cells: cells}
}
