package sched

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"automdt/internal/env"
	"automdt/internal/flight"
	"automdt/internal/static"
	"automdt/internal/transfer"
	"automdt/internal/workload"
)

// TestFlightEndToEnd runs jobs on one shared endpoint under a scheduler with the flight
// recorder enabled and asserts, through the HTTP surface, that the trace
// holds the full decision record: arbiter admissions and rebalances,
// per-session controller decisions with scored alternatives, and the
// stage/queue-wait histograms on /metrics.
func TestFlightEndToEnd(t *testing.T) {
	// The recorder is process-global (like the transfer arena), so tests
	// must restore the disabled default for the rest of the package.
	flight.Enable(0)
	t.Cleanup(func() {
		flight.Disable()
		flight.Default().Reset()
	})

	fr := &FleetRunner{Size: 1}
	t.Cleanup(fr.Close)
	s, err := New(Config{
		Budget:        [env.StageCount]int{8, 8, 8, 8},
		MaxActive:     2,
		NewController: func() env.Controller { return static.New(32) },
		Runner:        fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	// Three jobs through two slots: the third queues, so its admission
	// carries a measurable queue wait and the admissions of the first two
	// see it as a scored alternative.
	for i := 0; i < 3; i++ {
		_, err := s.Submit(JobSpec{
			Name:     fmt.Sprintf("fl-%d", i),
			Manifest: workload.LargeFiles(2, 2<<20),
			Priority: 1 + i,
			Transfer: transfer.Config{
				ProbeInterval: 15 * time.Millisecond,
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

	get := func(url string) flight.Trace {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", url, resp.Status)
		}
		var tr flight.Trace
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	trace := get(srv.URL + "/v1/debug/flight")
	if !trace.Enabled {
		t.Fatal("trace reports recorder disabled")
	}
	kinds := map[string]int{}
	ctrlDecisions := 0
	for _, ev := range trace.Events {
		kinds[ev.Kind]++
		switch ev.Kind {
		case flight.KindAdmission, flight.KindRebalance:
			if ev.Source != ArbiterSource {
				t.Fatalf("%s event from source %q, want %q", ev.Kind, ev.Source, ArbiterSource)
			}
		case flight.KindDecision:
			if !strings.HasPrefix(ev.Source, "ctrl:") {
				continue
			}
			ctrlDecisions++
			if len(ev.Alts) == 0 {
				t.Fatalf("controller decision without alternatives: %+v", ev)
			}
			if ev.Regret < 0 {
				t.Fatalf("negative regret: %+v", ev)
			}
			if ev.Chosen.N == [env.StageCount]int{} {
				t.Fatalf("controller decision without a chosen tuple: %+v", ev)
			}
		}
	}
	if kinds[flight.KindAdmission] != 3 {
		t.Fatalf("admissions=%d, want 3 (one per job): kinds=%v", kinds[flight.KindAdmission], kinds)
	}
	if kinds[flight.KindRebalance] == 0 {
		t.Fatalf("no rebalance events: kinds=%v", kinds)
	}
	if ctrlDecisions == 0 {
		t.Fatalf("no controller decision events; sources=%v kinds=%v", trace.Sources, kinds)
	}

	// Source filter: only arbiter events come back, and the source list
	// still names every source.
	arb := get(srv.URL + "/v1/debug/flight?source=" + ArbiterSource)
	if len(arb.Events) == 0 {
		t.Fatal("source filter returned nothing")
	}
	for _, ev := range arb.Events {
		if ev.Source != ArbiterSource {
			t.Fatalf("source filter leaked %q", ev.Source)
		}
	}
	if len(arb.Sources) < 2 {
		t.Fatalf("sources list=%v, want arbiter plus controller sources", arb.Sources)
	}

	// Since filter cuts the head of the arbiter's sequence.
	mid := arb.Events[len(arb.Events)/2].Seq
	tail := get(fmt.Sprintf("%s/v1/debug/flight?source=%s&since=%d", srv.URL, ArbiterSource, mid))
	if len(tail.Events) >= len(arb.Events) || len(tail.Events) == 0 {
		t.Fatalf("since=%d returned %d of %d events", mid, len(tail.Events), len(arb.Events))
	}
	if tail.Events[0].Seq != mid {
		t.Fatalf("since=%d first Seq=%d", mid, tail.Events[0].Seq)
	}

	// A malformed since is a 400, not a silent full dump.
	resp, err := http.Get(srv.URL + "/v1/debug/flight?since=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since: %s, want 400", resp.Status)
	}

	// The scheduler metrics page carries the recorder gauges and the
	// stage histograms the run populated.
	mresp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metricsText := string(raw)
	for _, want := range []string{
		"automdt_flight_enabled 1",
		"automdt_flight_events_total",
		"automdt_stage_queue_wait_seconds_count",
		`automdt_stage_read_seconds{quantile="0.99"}`,
		`automdt_stage_write_seconds{quantile="0.99"}`,
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// The trace renders into the flightdump report with per-source regret.
	report := flight.Render(trace, 5)
	if !strings.Contains(report, ArbiterSource) || !strings.Contains(report, "per-source regret:") {
		t.Fatalf("render missing arbiter summary:\n%s", report)
	}
}
