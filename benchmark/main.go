// Command benchmark is the repo benchmark: four workloads run as closed
// loops inside one process, every output verified, every metric printed
// by name with its unit, direction and regression bound. README.md says
// what each workload and metric is for; BENCHMARK.json at the repo root
// is the contract the driver runs it by.
//
//	go run -C benchmark . -seed 1                      # all four workloads
//	go run -C benchmark . -seed 1 -workload bulk_disk -trace 1 -out /tmp/b.json
//	go run -C benchmark . -layers                      # isolated layer timings
//	go run -C benchmark . -agree                       # two sets, compared against the bounds
//
// The driver's form is `--workload W --seed N --seconds S --trace 0|1`;
// the last line of standard output is then one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"automdt/internal/transfer"
)

// loadgen is one closed-loop load the harness can set up, run for a
// budget of measured time, and tear down.
type loadgen interface {
	setup() error // everything before the first timed op, warm-up included
	teardown() error
	run(ph *phase, budget time.Duration)
	clients() int
	tailPct() float64 // the fixed percentile op_ms_tail reports
	arenaOf() *transfer.Arena
	extraLayers(m map[string]float64, traced *phase)
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	dir     string // scratch root: datasets, trace files
}

// result is what one workload's run produced.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Leaked    int                `json:"goroutines_leaked"`
	Errors    []string           `json:"errors,omitempty"`
	TimedS    float64            `json:"timed_s"`
	Setups    []float64          `json:"setup_runs_s"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	OpMs      []float64          `json:"op_ms"` // untraced op walls, in completion order

	trace map[string]any
}

func (r *result) correct() bool { return r.Failed == 0 && r.Leaked == 0 && len(r.Errors) == 0 }

func newWorkload(name string, o options, root string) (loadgen, int, error) {
	switch name {
	case "bulk_disk":
		w := newBulkDisk(o.seed, root)
		if o.smoke {
			w.files, w.size = 2, 4<<20
		}
		return w, 5, nil
	case "small_files":
		w := newSmallFiles(o.seed, root)
		if o.smoke {
			w.files = 64
		}
		return w, 5, nil
	case "fleet_jobs":
		return newFleetJobs(o.seed, o.smoke), 5, nil
	case "adaptive_wan":
		// Set-up here is the offline training, ≈20 s of deterministic
		// single-threaded work: once is steady, three times is a minute.
		return newAdaptiveWan(o.seed, o.smoke), 1, nil
	}
	return nil, 0, fmt.Errorf("unknown workload %q", name)
}

// settle waits for goroutines the workload started to exit and returns
// how many are still there beyond base.
func settle(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return max(0, runtime.NumGoroutine()-base)
}

func runWorkload(name string, o options) (*result, error) {
	root, err := os.MkdirTemp(o.dir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	w, setups, err := newWorkload(name, o, root)
	if err != nil {
		return nil, err
	}
	if o.smoke {
		setups = 1
	}
	res := &result{Workload: name, Seed: o.seed}
	base := runtime.NumGoroutine()

	// Set-up runs several times and reports the median; the last one stays.
	for i := 0; i < setups; i++ {
		if i > 0 {
			if err := w.teardown(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, err
		}
		res.Setups = append(res.Setups, time.Since(t0).Seconds())
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	runPhase := func(traced bool, budget time.Duration) *phase {
		ph := newPhase(w.clients(), traced, w.arenaOf())
		if o.smoke {
			ph.maxOps = 2
		}
		w.run(ph, budget)
		ph.finish()
		_, failed, _, _, _ := ph.totals()
		res.Attempted += len(ph.ops)
		res.Failed += failed
		for _, s := range ph.ops {
			if s.failed && len(res.Errors) < 5 {
				res.Errors = append(res.Errors, s.err)
			}
		}
		return ph
	}
	un := runPhase(false, budget)
	res.TimedS = un.active.Seconds()
	for _, s := range un.ops {
		res.OpMs = append(res.OpMs, float64(s.wall)/1e6)
	}
	res.EndToEnd = un.endToEnd(w.tailPct())
	res.EndToEnd["setup_s"] = median(res.Setups)

	var tr *phase
	if o.trace {
		// The traced phase repeats the workload at a third of the budget.
		tr = runPhase(true, budget/3)
		res.PerLayer = make(map[string]float64)
		for _, d := range perLayerDefs {
			res.PerLayer[d.Name] = 0
		}
		commonLayers(res.PerLayer, un, tr, w.tailPct())
		w.extraLayers(res.PerLayer, tr)
		isolatedLayers(res.PerLayer, o.smoke)
		res.trace = tr.tr.doc()
	}
	if err := w.teardown(); err != nil {
		res.Errors = append(res.Errors, err.Error())
	}
	res.Leaked = settle(base)
	if res.Leaked > 0 {
		res.Errors = append(res.Errors, fmt.Sprintf("%d goroutines outlived the workload", res.Leaked))
	}
	if o.trace {
		res.PerLayer["proc.goroutines_leaked"] = float64(res.Leaked)
	}
	return res, nil
}

// host facts recorded with every run.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	DataFS     string `json:"data_dir_filesystem"`
	Link       string `json:"link"`
}

func host(dir string) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		DataFS: "unknown", Link: "127.0.0.1 loopback TCP, not a real link"}
	var st syscall.Statfs_t
	if syscall.Statfs(dir, &st) == nil {
		names := map[int64]string{0xEF53: "ext2/3/4", 0x01021994: "tmpfs", 0x58465342: "xfs",
			0x9123683E: "btrfs", 0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs"}
		if n, ok := names[int64(st.Type)]; ok {
			h.DataFS = n
		} else {
			h.DataFS = fmt.Sprintf("statfs type %#x", st.Type)
		}
	}
	return h
}

func printResult(r *result) {
	state := "all outputs verified"
	if !r.correct() {
		state = "INCORRECT"
	}
	fmt.Printf("\n== %s  seed %d  %d ops, %d failed, %s  timed %.1f s  set-up ×%d\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, state, r.TimedS, len(r.Setups))
	for _, e := range r.Errors {
		fmt.Printf("   error: %s\n", e)
	}
	fmt.Printf("   %-34s %16s  %-6s %-7s %s\n", "metric", "value", "unit", "better", "bound")
	for _, d := range endToEndDefs {
		fmt.Printf("   %-34s %16.4f  %-6s %-7s %.2f\n", d.Name, r.EndToEnd[d.Name], d.Unit, d.Better, d.Bound)
	}
	if r.PerLayer == nil {
		return
	}
	for _, d := range perLayerDefs {
		fmt.Printf("   %-34s %16.4f  %-6s %-7s\n", d.Name, r.PerLayer[d.Name], d.Unit, d.Better)
	}
}

// driverLine is the one JSON object the driver reads from the last line
// of standard output: end-to-end metrics untraced, per-layer traced.
func driverLine(r *result, trace bool) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val)
	defs, vals := endToEndDefs, r.EndToEnd
	if trace {
		defs, vals = perLayerDefs, r.PerLayer
	}
	for _, d := range defs {
		metrics[d.Name] = val{vals[d.Name], d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err)
	}
	return string(line)
}

func runSet(names []string, o options) ([]*result, error) {
	var out []*result
	for _, n := range names {
		r, err := runWorkload(n, o)
		if err != nil {
			return out, fmt.Errorf("%s: %w", n, err)
		}
		printResult(r)
		out = append(out, r)
	}
	return out, nil
}

// agree runs the full set twice back to back and holds every end-to-end
// metric of every workload to its own bound.
func agree(names []string, o options) bool {
	var sets [2][]*result
	for i := range sets {
		fmt.Printf("\n#### set %d of 2\n", i+1)
		rs, err := runSet(names, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return false
		}
		sets[i] = rs
	}
	ok := true
	fmt.Printf("\n%-14s %-16s %14s %14s %9s %6s\n", "workload", "metric", "set 1", "set 2", "rel.diff", "bound")
	for i, a := range sets[0] {
		b := sets[1][i]
		ok = ok && a.correct() && b.correct()
		for _, d := range endToEndDefs {
			x, y := a.EndToEnd[d.Name], b.EndToEnd[d.Name]
			// How much worse set 2 is than set 1, or the reverse: either
			// way round, two runs of one program should not differ by more.
			diff := math.Abs(y-x) / math.Min(x, y)
			mark := ""
			if diff > d.Bound {
				mark, ok = "  DISAGREE", false
			}
			fmt.Printf("%-14s %-16s %14.4f %14.4f %9.4f %6.2f%s\n", a.Workload, d.Name, x, y, diff, d.Bound, mark)
		}
	}
	return ok
}

func main() {
	var o options
	var name, out string
	var trace int
	var layers, agreeMode bool
	flag.StringVar(&name, "workload", "", "workload to run (default: all four, in one process)")
	flag.Int64Var(&o.seed, "seed", 1, "derives file names and content and session ids")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured time per workload")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced phase and the per-layer metrics")
	flag.StringVar(&out, "out", "", "write the full report here, and trace.json beside it")
	flag.StringVar(&o.dir, "dir", ".bench_build", "scratch directory for datasets and traces")
	flag.BoolVar(&layers, "layers", false, "print only the isolated layer timings")
	flag.BoolVar(&agreeMode, "agree", false, "run the set twice and compare against the bounds")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes, two ops per phase: exercises the harness, measures nothing")
	flag.Parse()
	o.trace = trace != 0

	if layers {
		m := make(map[string]float64)
		isolatedLayers(m, false)
		for _, d := range perLayerDefs {
			if v, ok := m[d.Name]; ok {
				fmt.Printf("%-34s %16.4f  %-6s %s\n", d.Name, v, d.Unit, d.Better)
			}
		}
		return
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	h := host(o.dir)
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s, data dir on %s, %s\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.DataFS, h.Link)

	var names []string
	for _, d := range workloadDefs {
		if name == "" || name == d.Name {
			names = append(names, d.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		os.Exit(2)
	}
	if agreeMode {
		if !agree(names, o) {
			os.Exit(1)
		}
		return
	}
	results, err := runSet(names, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	correct := true
	traces := make(map[string]any)
	for _, r := range results {
		correct = correct && r.correct()
		if r.trace != nil {
			traces[r.Workload] = r.trace
		}
	}
	if out != "" {
		writeJSON(out, map[string]any{"host": h, "seconds": o.seconds, "results": results})
	}
	if o.trace {
		tracePath := filepath.Join(o.dir, "trace.json")
		if out != "" {
			tracePath = filepath.Join(filepath.Dir(out), "trace.json")
		}
		writeJSON(tracePath, traces)
	}
	if len(results) == 1 {
		fmt.Println(driverLine(results[0], o.trace))
	}
	if !correct {
		os.Exit(1)
	}
}

func writeJSON(path string, v any) {
	data, err := json.Marshal(v)
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
