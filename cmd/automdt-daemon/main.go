// Command automdt-daemon is the multi-tenant transfer scheduler service:
// a long-running daemon that accepts transfer jobs over HTTP, queues them
// by priority, and runs them concurrently under a global per-stage worker
// budget split fair-share across active jobs (internal/sched). Every job
// runs as a sender session against a fleet of shared multi-session
// receiver endpoints (-fleet N, default 1) with consistent-hash placement
// and failover; GET /v1/fleet shows them.
//
// Start it with a host-wide budget:
//
//	automdt-daemon -addr :8080 -budget-read 32 -budget-net 32 -budget-write 32
//
// Submit, inspect, and cancel jobs:
//
//	curl -s localhost:8080/v1/jobs -d '{"name":"nightly","priority":2,
//	    "dataset":{"kind":"large","count":64,"size_bytes":67108864}}'
//	curl -s localhost:8080/v1/jobs          # list
//	curl -s localhost:8080/v1/jobs/1        # one job
//	curl -s -X POST localhost:8080/v1/jobs/1/cancel
//	curl -s localhost:8080/v1/metrics       # text-format metrics
//
// The per-job optimizer is chosen with -optimizer: marlin (default,
// needs no training), static, or automdt with -model/-profile files
// written by automdt-train.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // handlers gated behind -pprof; see below
	"os"
	"os/signal"
	"syscall"
	"time"

	"automdt/internal/core"
	"automdt/internal/env"
	"automdt/internal/flight"
	"automdt/internal/marlin"
	"automdt/internal/probe"
	"automdt/internal/rl"
	"automdt/internal/sched"
	"automdt/internal/static"
	"automdt/internal/transfer"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// usage reports a flag combination the daemon cannot run with.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "automdt-daemon:", err)
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
	budgetRead := flag.Int("budget-read", 32, "global read worker budget")
	budgetConns := flag.Int("budget-conns", 16, "global data-connection budget")
	budgetNet := flag.Int("budget-net", 32, "global per-connection stream budget")
	budgetWrite := flag.Int("budget-write", 32, "global write worker budget")
	maxActive := flag.Int("max-active", 0, "max concurrent jobs (0 = min stage budget)")
	opt := flag.String("optimizer", "marlin", "per-job optimizer: marlin, static, automdt")
	fleetSize := flag.Int("fleet", 1, "number of shared multi-session receiver endpoints every job runs against, with consistent-hash placement and failover (≥ 1)")
	maxSessions := flag.Int("max-sessions", 0, "per-endpoint admission cap (0 = default 64)")
	writeBudget := flag.Float64("write-budget-mbps", 0, "per-endpoint write budget in Mbps, split max-min fair across its sessions (0 = unarbitrated)")
	cc := flag.Int("cc", 4, "static optimizer concurrency")
	model := flag.String("model", "", "automdt agent checkpoint (from automdt-train)")
	profilePath := flag.String("profile", "", "automdt probed profile JSON (from automdt-train)")
	maxThreads := flag.Int("maxthreads", 32, "per-stage concurrency bound for automdt")
	flightOn := flag.Bool("flight", false, "enable the decision flight recorder (dump at GET /v1/debug/flight)")
	flightCap := flag.Int("flight-capacity", 0, "flight ring capacity per source (0 = default)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the HTTP listener")
	flag.Parse()
	if *fleetSize < 1 {
		usage(fmt.Errorf("-fleet must be ≥ 1, got %d", *fleetSize))
	}

	if *flightOn {
		flight.Enable(*flightCap)
	}

	var newController func() env.Controller
	switch *opt {
	case "marlin":
		newController = func() env.Controller { return marlin.New() }
	case "static":
		newController = func() env.Controller { return static.New(*cc) }
	case "automdt":
		if *model == "" || *profilePath == "" {
			fatal(fmt.Errorf("automdt optimizer needs -model and -profile"))
		}
		pj, err := os.ReadFile(*profilePath)
		if err != nil {
			fatal(err)
		}
		var p probe.Profile
		if err := json.Unmarshal(pj, &p); err != nil {
			fatal(err)
		}
		f, err := os.Open(*model)
		if err != nil {
			fatal(err)
		}
		// Quick-mode training (the automdt-train default) uses the small
		// network; the checkpoint architecture must match.
		sys, err := core.LoadSystem(f, &p, core.Options{
			MaxThreads: *maxThreads,
			Net:        rl.NetConfig{Hidden: 32, PolicyBlocks: 1, ValueBlocks: 1},
		})
		f.Close()
		if err != nil {
			fatal(err)
		}
		// The mean-action controller keeps no per-job state and ActMean is
		// safe for concurrent use, so one trained system drives every
		// concurrent job.
		newController = func() env.Controller { return sys.DeterministicController() }
	default:
		fatal(fmt.Errorf("unknown optimizer %q", *opt))
	}

	recvCfg := transfer.Config{MaxSessions: *maxSessions, WriteBudgetMbps: *writeBudget}
	fr := &sched.FleetRunner{Size: *fleetSize, Receiver: recvCfg}
	defer fr.Close()
	s, err := sched.New(sched.Config{
		Budget:        [env.StageCount]int{*budgetRead, *budgetConns, *budgetNet, *budgetWrite},
		MaxActive:     *maxActive,
		NewController: newController,
		Runner:        fr,
	})
	if err != nil {
		fatal(err)
	}
	// Every active job holds one session on the fleet, so more active
	// jobs than the endpoints admit would be refused at the handshake.
	if perEndpoint := recvCfg.WithDefaults().MaxSessions; s.MaxActive() > *fleetSize*perEndpoint {
		usage(fmt.Errorf("max active jobs %d exceed the fleet's admission (-fleet %d × -max-sessions %d); lower -max-active or raise -fleet/-max-sessions",
			s.MaxActive(), *fleetSize, perEndpoint))
	}
	eps, err := fr.Endpoints()
	if err != nil {
		fatal(err)
	}
	for _, ep := range eps {
		fmt.Printf("automdt-daemon: fleet endpoint %s serving %s\n", ep.ID, ep.Addr)
	}

	handler := sched.NewHandler(s)
	if *pprofOn {
		// The pprof handlers register themselves on http.DefaultServeMux
		// at import; route /debug/pprof/ there and everything else to the
		// scheduler API, so profiling stays off unless asked for.
		mux := http.NewServeMux()
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	fmt.Printf("automdt-daemon: listening on %s (budget r/c/s/w = %d/%d/%d/%d, max active %d, optimizer %s)\n",
		*addr, *budgetRead, *budgetConns, *budgetNet, *budgetWrite, s.MaxActive(), *opt)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		s.Close()
		fatal(err)
	case got := <-sig:
		// Graceful shutdown: stop accepting, cancel in-flight jobs, wait
		// for workers.
		fmt.Printf("automdt-daemon: %v, shutting down\n", got)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		s.Close()
	}
}
