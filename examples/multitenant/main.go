// Multitenant: drive twelve simultaneous transfer jobs through the
// scheduler daemon — all of them landing on ONE shared multi-session
// receiver endpoint. The daemon's HTTP API (the same one
// cmd/automdt-daemon serves) accepts a burst of jobs at three priority
// levels; the global budget arbiter splits a 24/24/24 worker budget
// fair-share across whatever is running, while the endpoint's single
// listener demultiplexes every tenant's data connections into
// isolated sessions (own staging buffer, write pool, and ledger each).
//
// The example starts the daemon in-process on an ephemeral port, submits
// every job over real HTTP, polls until the fleet drains, and prints the
// final per-job table plus the endpoint's automdt_endpoint_* gauges from
// the daemon's /v1/metrics text.
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
	"automdt/internal/marlin"
	"automdt/internal/sched"
	"automdt/internal/transfer"
	"automdt/internal/workload"
)

const jobs = 12

func main() {
	// One shared destination endpoint for the whole tenant fleet — the
	// daemon's default -fleet 1: every job runs as a sender session
	// against this receiver, verified against the deterministic synthetic
	// content.
	endpoint := &sched.FleetRunner{
		Size:     1,
		Receiver: transfer.Config{MaxSessions: jobs},
		Verify:   true,
	}
	defer endpoint.Close()

	s, err := sched.New(sched.Config{
		// Host-wide worker budget per stage dimension ⟨read, conns,
		// streams, write⟩. With 12 greedy tenants active, fair-share hands
		// each a slice and the summed concurrency never exceeds the budget
		// in any dimension.
		Budget:        [env.StageCount]int{24, 12, 24, 24},
		MaxActive:     jobs,
		NewController: func() env.Controller { return marlin.New() },
		Runner:        endpoint,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	eps, err := endpoint.Endpoints()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shared endpoint: %s\n", eps[0].Addr)

	// Serve the daemon API on an ephemeral loopback port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: sched.NewHandler(s)}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("daemon listening on %s\n", base)

	// Submit a burst of 12 tenants: interactive (priority 3), batch
	// (priority 2), and background (priority 1), mixing dataset shapes.
	start := time.Now()
	for i := 0; i < jobs; i++ {
		req := sched.SubmitRequest{
			Name:            fmt.Sprintf("tenant-%02d", i),
			Priority:        1 + i%3,
			MaxRetries:      1,
			ProbeIntervalMs: 25,
			MaxThreads:      24,
		}
		if i%2 == 0 {
			req.Dataset = workload.Spec{Kind: "large", Count: 4, SizeBytes: 1 << 20}
		} else {
			req.Dataset = workload.Spec{
				Kind: "mixed", TotalBytes: 4 << 20,
				MinBytes: 64 << 10, MaxBytes: 1 << 20, Seed: int64(i),
			}
		}
		body, _ := json.Marshal(req)
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		var st sched.JobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		fmt.Printf("submitted job %2d %s priority=%d %6.1f MiB\n",
			st.ID, st.Name, st.Priority, float64(st.TotalBytes)/(1<<20))
	}

	// Poll the list endpoint until every job is terminal.
	var list []sched.JobStatus
	for {
		resp, err := http.Get(base + "/v1/jobs")
		if err != nil {
			log.Fatal(err)
		}
		list = list[:0]
		json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		pending := 0
		for _, st := range list {
			if st.State == "queued" || st.State == "running" {
				pending++
			}
		}
		if pending == 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Printf("\nall %d jobs drained through one endpoint in %v\n\n",
		jobs, time.Since(start).Round(time.Millisecond))

	fmt.Printf("%-12s %-10s %-9s %-8s %-10s %s\n",
		"job", "state", "priority", "attempts", "seconds", "avg Mbps")
	failed := 0
	for _, st := range list {
		fmt.Printf("%-12s %-10s %-9d %-8d %-10.2f %.0f\n",
			st.Name, st.State, st.Priority, st.Attempts, st.Seconds, st.AvgMbps)
		if st.State != "done" {
			failed++
		}
	}
	if failed > 0 {
		log.Fatalf("%d of %d tenants did not complete", failed, jobs)
	}

	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()

	// The endpoint gauges prove the multi-session story: every tenant was
	// admitted by, and completed against, the same receiver.
	fmt.Println("\nshared-endpoint gauges:")
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "automdt_endpoint_") {
			fmt.Println(line)
		}
	}
}
