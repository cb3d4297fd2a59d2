// Fleet: drive two hundred transfer sessions through the scheduler
// daemon against a THREE-endpoint receiver fleet, then kill one endpoint
// mid-run and watch the fleet absorb it. Sessions are placed on
// endpoints by a consistent-hash ring with bounded loads, each endpoint
// reports its own liveness, and every endpoint shares
// one destination store — so when ep-2 dies, the sessions it was serving
// are retried by the scheduler, placed on a live sibling, and resume
// from the ledger the victim persisted in the shared store instead of
// re-sending from byte zero.
//
// The example starts the daemon in-process on an ephemeral port, submits
// every job over real HTTP, kills an endpoint once the run is warm,
// polls until the fleet drains, and prints the per-state tally, the
// /v1/fleet membership document, the fleet's re-place decisions from the
// flight recorder, and the automdt_fleet_* gauges from /v1/metrics.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"automdt/internal/env"
	"automdt/internal/flight"
	"automdt/internal/marlin"
	"automdt/internal/sched"
	"automdt/internal/transfer"
	"automdt/internal/workload"
)

const (
	jobs      = 200
	endpoints = 3
)

func main() {
	flight.Enable(1024) // record the fleet's place/re-place decisions

	fleet := &sched.FleetRunner{
		Size:     endpoints,
		Verify:   true,
		Receiver: transfer.Config{MaxSessions: 96},
	}
	defer fleet.Close()

	s, err := sched.New(sched.Config{
		Budget:        [env.StageCount]int{32, 24, 32, 32},
		MaxActive:     24,
		NewController: func() env.Controller { return marlin.New() },
		Runner:        fleet,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	eps, err := fleet.Endpoints()
	if err != nil {
		log.Fatal(err)
	}
	for _, ep := range eps {
		fmt.Printf("fleet endpoint %s: %s\n", ep.ID, ep.Addr)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: sched.NewHandler(s)}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("daemon listening on %s\n\n", base)

	// Two hundred sessions — enough that every endpoint hosts dozens
	// over the run and the mid-burst kill is guaranteed to orphan some.
	submit := func(i int) {
		// Early jobs carry more files so sessions are still mid-transfer
		// when the kill lands; the tail stays light so the run drains.
		count := 2
		if i < jobs*3/5 {
			count = 6
		}
		req := sched.SubmitRequest{
			Name:            fmt.Sprintf("sess-%03d", i),
			Priority:        1 + i%3,
			MaxRetries:      3,
			ProbeIntervalMs: 25,
			Dataset:         workload.Spec{Kind: "large", Count: count, SizeBytes: 2 << 20},
		}
		body, _ := json.Marshal(req)
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
	}
	poll := func() (done, failed int, list []sched.JobStatus) {
		resp, err := http.Get(base + "/v1/jobs")
		if err != nil {
			log.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		for _, st := range list {
			switch st.State {
			case "done":
				done++
			case "failed", "canceled":
				failed++
			}
		}
		return done, failed, list
	}

	// The fault injector runs alongside the submission burst: as soon as
	// the victim endpoint demonstrably hosts a handful of in-flight
	// sessions, it is killed outright — its serve loop dies, its
	// sessions abort, and it reports itself dead at once, so placement
	// drops it from the ring. Victim sessions fail over: the scheduler's
	// retry re-places them on a live sibling, which resumes from the
	// ledger in the shared store. The watcher reads the fleet's status
	// directly because an HTTP poll can lag seconds behind on a
	// saturated box.
	start := time.Now()
	victim := eps[endpoints-1].ID
	killed := make(chan int, 1)
	go func() {
		// The budget arbiter keeps only a handful of jobs in flight at
		// once, so "a couple of sessions on the victim" is already a
		// representative mid-run load.
		deadline := time.Now().Add(20 * time.Second)
		hosted := 0
		for hosted < 2 && time.Now().Before(deadline) {
			for _, ep := range fleet.Status().Endpoints {
				if ep.ID == victim {
					hosted = ep.Sessions
				}
			}
			time.Sleep(25 * time.Millisecond)
		}
		if err := fleet.KillEndpoint(victim); err != nil {
			log.Fatal(err)
		}
		killed <- hosted
	}()

	for i := 0; i < jobs; i++ {
		submit(i)
	}
	fmt.Printf("submitted %d jobs across %d endpoints\n", jobs, endpoints)
	fmt.Printf("killed endpoint %s with %d sessions in flight\n", victim, <-killed)

	var list []sched.JobStatus
	for {
		done, failed, l := poll()
		if done+failed == jobs {
			list = l
			break
		}
		time.Sleep(25 * time.Millisecond)
	}

	tally := map[string]int{}
	resumes, skipped := 0, int64(0)
	for _, st := range list {
		tally[st.State]++
		resumes += st.Resumes
		skipped += st.SkippedBytes
	}
	fmt.Printf("\nall %d jobs drained in %v: %v\n", jobs, time.Since(start).Round(time.Millisecond), tally)
	fmt.Printf("failover resumes: %d sessions skipped %.1f MiB of already-committed bytes\n",
		resumes, float64(skipped)/(1<<20))

	// The fleet's own account of what happened: membership with the dead
	// victim, placement and failover counters.
	resp, err := http.Get(base + "/v1/fleet")
	if err != nil {
		log.Fatal(err)
	}
	var fs sched.FleetStatus
	json.NewDecoder(resp.Body).Decode(&fs)
	resp.Body.Close()
	doc, _ := json.MarshalIndent(fs, "", "  ")
	fmt.Printf("\nGET /v1/fleet:\n%s\n", doc)

	replaces := 0
	for _, ev := range flight.Default().Dump(sched.FleetSource, 0) {
		if ev.Kind == flight.KindReplace {
			replaces++
		}
	}
	fmt.Printf("\nflight recorder: %d re-place decisions under source %q\n", replaces, sched.FleetSource)

	resp, err = http.Get(base + "/v1/metrics")
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	fmt.Println("\nfleet gauges:")
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "automdt_fleet_") {
			fmt.Println(line)
		}
	}

	if failed := tally["failed"] + tally["canceled"]; failed > 0 {
		log.Fatalf("%d of %d sessions did not complete", failed, jobs)
	}
	if !fs.Endpoints[endpoints-1].Live {
		fmt.Printf("\nendpoint %s is dead, %d live siblings carried the fleet home\n", victim, fs.Size-1)
	}
}
