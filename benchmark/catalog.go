package main

// metricDef names one metric the harness emits. BENCHMARK.json at the
// repo root lists the same metrics; bench_test.go holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"bulk_disk", "8 x 64 MiB disk to disk: the data plane (read, CRC, framing, socket, pwrite) does all the work, CPU-bound on 2 cores"},
	{"small_files", "4096 x 4 KiB disk to disk: one frame per file, so per-file open/create/close and control messages dominate and batching is bypassed"},
	{"fleet_jobs", "one-chunk jobs through scheduler and 3-endpoint fleet, 2 closed-loop clients: the control plane does the work, the data plane moves one chunk"},
	{"adaptive_wan", "PPO-driven transfers on a 1000 Mbps path with 100 Mbps per connection: the controller decides the outcome, striping must win"},
}

// endToEndDefs are what a user of the system sees. Every workload emits
// every one of them (the driver's contract); the README says which ones
// are each workload's headline, and why every bound is the widest the
// contract allows: the host's own speed moves ±12 % from minute to minute.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_MBps", "MB/s", "higher", 0.25},
	{"files_per_s", "1/s", "higher", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_tail", "ms", "lower", 0.25},
}

// perLayerDefs are the single-layer metrics of the traced run, layer =
// module name. Counts and busy times are per op (mean over the traced
// ops); a layer a workload does not use reads 0.
var perLayerDefs = []metricDef{
	{Name: "proc.cpu_user_s_per_GB", Unit: "s/GB", Better: "lower"},
	{Name: "proc.cpu_sys_s_per_GB", Unit: "s/GB", Better: "lower"},
	{Name: "proc.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_rss_MB", Unit: "MB", Better: "lower"},
	{Name: "proc.mallocs_per_GB", Unit: "1/GB", Better: "lower"},
	{Name: "proc.mallocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.goroutines_leaked", Unit: "count", Better: "lower"},

	{Name: "fsim.open_calls", Unit: "count", Better: "lower"},
	{Name: "fsim.open_busy_s", Unit: "s", Better: "lower"},
	{Name: "fsim.read_calls", Unit: "count", Better: "lower"},
	{Name: "fsim.read_bytes", Unit: "B", Better: "lower"},
	{Name: "fsim.read_busy_s", Unit: "s", Better: "lower"},
	{Name: "fsim.create_calls", Unit: "count", Better: "lower"},
	{Name: "fsim.create_busy_s", Unit: "s", Better: "lower"},
	{Name: "fsim.write_calls", Unit: "count", Better: "lower"},
	{Name: "fsim.write_bytes", Unit: "B", Better: "lower"},
	{Name: "fsim.write_busy_s", Unit: "s", Better: "lower"},
	{Name: "fsim.close_busy_s", Unit: "s", Better: "lower"},
	{Name: "fsim.ledger_calls", Unit: "count", Better: "lower"},
	{Name: "fsim.ledger_bytes", Unit: "B", Better: "lower"},
	{Name: "fsim.ledger_busy_s", Unit: "s", Better: "lower"},

	{Name: "net.data_conns", Unit: "count", Better: "lower"},
	{Name: "net.data_write_calls", Unit: "count", Better: "lower"},
	{Name: "net.data_write_bytes", Unit: "B", Better: "lower"},
	{Name: "net.data_write_busy_s", Unit: "s", Better: "lower"},
	{Name: "net.ctrl_tx_bytes", Unit: "B", Better: "lower"},
	{Name: "net.ctrl_rx_bytes", Unit: "B", Better: "lower"},

	{Name: "wire.framing_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "wire.ioops_per_GB", Unit: "1/GB", Better: "lower"},
	{Name: "wire.crc_GBps_256k", Unit: "GB/s", Better: "higher"},
	{Name: "wire.batchcrc_GBps", Unit: "GB/s", Better: "higher"},
	{Name: "wire.frame_rt_ns_256k", Unit: "ns", Better: "lower"},
	{Name: "wire.frame_rt_ns_4k", Unit: "ns", Better: "lower"},

	{Name: "transfer.listen_s", Unit: "s", Better: "lower"},
	{Name: "transfer.handshake_s", Unit: "s", Better: "lower"},
	{Name: "transfer.stream_s", Unit: "s", Better: "lower"},
	{Name: "transfer.drain_s", Unit: "s", Better: "lower"},
	{Name: "transfer.phase_residual_frac", Unit: "frac", Better: "lower"},
	{Name: "transfer.ticks", Unit: "count", Better: "lower"},
	{Name: "transfer.sender_buf_used_frac", Unit: "frac", Better: "lower"},
	{Name: "transfer.receiver_buf_used_frac", Unit: "frac", Better: "lower"},
	{Name: "transfer.resent_bytes", Unit: "B", Better: "lower"},
	{Name: "transfer.arena_hits", Unit: "count", Better: "higher"},
	{Name: "transfer.arena_misses", Unit: "count", Better: "lower"},
	{Name: "transfer.arena_overflow", Unit: "count", Better: "lower"},
	{Name: "transfer.arena_peak_MB", Unit: "MB", Better: "lower"},
	{Name: "transfer.staging_handoff_ns", Unit: "ns", Better: "lower"},
	{Name: "transfer.arena_lease_ns", Unit: "ns", Better: "lower"},
	{Name: "transfer.ledger_commit_ns", Unit: "ns", Better: "lower"},
	{Name: "transfer.ledger_tick_bytes", Unit: "B", Better: "lower"},
	{Name: "transfer.ledger_snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "transfer.ledger_replay_ms", Unit: "ms", Better: "lower"},

	{Name: "sched.submit_us_p50", Unit: "us", Better: "lower"},
	{Name: "sched.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sched.run_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sched.run_overhead_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "sched.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "sched.list_us", Unit: "us", Better: "lower"},

	{Name: "fleet.placements", Unit: "count", Better: "lower"},
	{Name: "fleet.failovers", Unit: "count", Better: "lower"},
	{Name: "fleet.placement_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "fleet.ring_acquire_ns_3", Unit: "ns", Better: "lower"},
	{Name: "fleet.ring_acquire_ns_64", Unit: "ns", Better: "lower"},
	{Name: "fleet.registry_heartbeat_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.registry_live_ns_64", Unit: "ns", Better: "lower"},

	{Name: "core.decide_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.decide_us_max", Unit: "us", Better: "lower"},
	{Name: "core.decisions", Unit: "count", Better: "lower"},
	{Name: "core.converge_s", Unit: "s", Better: "lower"},
	{Name: "core.final_conns", Unit: "count", Better: "lower"},
	{Name: "core.final_threads_total", Unit: "count", Better: "lower"},
	{Name: "core.goodput_frac", Unit: "frac", Better: "higher"},
	{Name: "env.utility_frac", Unit: "frac", Better: "higher"},

	{Name: "rl.train_s", Unit: "s", Better: "lower"},
	{Name: "rl.episodes", Unit: "count", Better: "lower"},
	{Name: "rl.episodes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "rl.converged_at", Unit: "count", Better: "lower"},
	{Name: "rl.best_reward_frac", Unit: "frac", Better: "higher"},
	{Name: "probe.explore_s", Unit: "s", Better: "lower"},
	{Name: "nn.act_mean_us", Unit: "us", Better: "lower"},
	{Name: "sim.steps_per_s", Unit: "1/s", Better: "higher"},

	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "bench.generator_idle_frac", Unit: "frac", Better: "lower"},
	{Name: "bench.op_self_frac", Unit: "frac", Better: "lower"},
}
