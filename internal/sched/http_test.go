package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"automdt/internal/env"
	"automdt/internal/transfer"
	"automdt/internal/workload"
)

// dataset is shorthand for a uniform large-file workload.Spec.
func dataset(count int, size int64) workload.Spec {
	return workload.Spec{Kind: "large", Count: count, SizeBytes: size}
}

// newTestServer serves a scheduler over HTTP; a config without a runner
// gets the daemon's default, a one-endpoint fleet.
func newTestServer(t *testing.T, cfg Config) (*Scheduler, *httptest.Server) {
	t.Helper()
	if cfg.Runner == nil {
		fr := &FleetRunner{Size: 1, Verify: true}
		t.Cleanup(fr.Close)
		cfg.Runner = fr
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) JobStatus {
	t.Helper()
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestHTTPSubmitStatusMetrics(t *testing.T) {
	_, srv := newTestServer(t, Config{Budget: [env.StageCount]int{8, 8, 8, 8}})

	req := SubmitRequest{
		Name:            "api-job",
		Priority:        2,
		Dataset:         dataset(2, 256<<10),
		ProbeIntervalMs: 10,
	}
	resp := postJSON(t, srv.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	if st.ID != 1 || st.Priority != 2 || st.TotalBytes != 512<<10 {
		t.Fatalf("submit response = %+v", st)
	}
	if st.SessionID == "" {
		t.Fatalf("no resume session assigned: %+v", st)
	}

	waitFor(t, "job done via API", func() bool {
		r, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", srv.URL, st.ID))
		if err != nil {
			return false
		}
		return decodeStatus(t, r).State == "done"
	})

	r, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(list) != 1 || list[0].Name != "api-job" {
		t.Fatalf("list = %+v", list)
	}

	r, err = http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(r.Body)
	r.Body.Close()
	txt := buf.String()
	for _, want := range []string{
		`automdt_sched_jobs{state="done"} 1`,
		`automdt_sched_budget{stage="read"} 8`,
		`automdt_job_avg_mbps{job="1"}`,
		`automdt_resume_sessions_total`,
		`automdt_resume_bytes_skipped_total`,
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("metrics missing %q:\n%s", want, txt)
		}
	}
}

func TestHTTPCancel(t *testing.T) {
	block := make(chan struct{})
	runner := RunnerFunc(func(ctx context.Context, spec JobSpec, ctrl env.Controller) (*transfer.Result, error) {
		select {
		case <-block:
			return &transfer.Result{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	s, srv := newTestServer(t, Config{Budget: [env.StageCount]int{2, 2, 2, 2}, Runner: runner})
	defer close(block)

	st := decodeStatus(t, postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{
		Name: "doomed", Dataset: dataset(1, 1024),
	}))
	resp := postJSON(t, fmt.Sprintf("%s/v1/jobs/%d/cancel", srv.URL, st.ID), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := s.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != "cancelled" {
		t.Fatalf("state = %s, want cancelled", got.State)
	}
	// Cancelling again conflicts.
	resp = postJSON(t, fmt.Sprintf("%s/v1/jobs/%d/cancel", srv.URL, st.ID), nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel status = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestHTTPErrors(t *testing.T) {
	_, srv := newTestServer(t, Config{Budget: [env.StageCount]int{1, 1, 1, 1}})

	// Unknown job.
	r, err := http.Get(srv.URL + "/v1/jobs/99")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d", r.StatusCode)
	}
	r.Body.Close()

	// Bad dataset.
	resp := postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Name: "bad"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad dataset status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// A destination directory: every job writes into the fleet's store.
	resp = postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Name: "dir", Dataset: dataset(1, 1024), DestDir: t.TempDir()})
	var body map[string]string
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"], "dest_dir") {
		t.Fatalf("dest_dir submit: status %d body %v, want 400 naming dest_dir", resp.StatusCode, body)
	}

	// Checksums off: every session verifies frame and file sums. An
	// explicit false is the only mode there is and is accepted.
	for _, off := range []bool{true, false} {
		raw := fmt.Sprintf(`{"name":"sums","dataset":{"kind":"large","count":1,"size_bytes":1024},"disable_checksums":%v}`, off)
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		body = nil
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		refused := resp.StatusCode == http.StatusBadRequest && strings.Contains(body["error"], "disable_checksums")
		if refused != off || (!off && resp.StatusCode >= 300) {
			t.Fatalf("disable_checksums %v submit: status %d body %v", off, resp.StatusCode, body)
		}
	}

	// Malformed id.
	r, err = http.Get(srv.URL + "/v1/jobs/banana")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed id status = %d", r.StatusCode)
	}
	r.Body.Close()

	// Health.
	r, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", r.StatusCode)
	}
	r.Body.Close()
}

// TestHTTPRefusesMaxThreadsAboveBudget: no stage can grant one job more
// workers than its budget, so an explicit max_threads above the largest
// per-stage budget is refused with 400; one at that budget is accepted.
func TestHTTPRefusesMaxThreadsAboveBudget(t *testing.T) {
	_, srv := newTestServer(t, Config{Budget: [env.StageCount]int{2, 3, 2, 2}})
	resp := postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Name: "wide", Dataset: dataset(1, 1024), MaxThreads: 4})
	var body map[string]string
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"], "max_threads") {
		t.Fatalf("max_threads 4 over budget 3: status %d body %v, want 400 naming max_threads", resp.StatusCode, body)
	}
	resp = postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Name: "fits", Dataset: dataset(1, 1024), MaxThreads: 3})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("max_threads 3 within budget 3: status %d, want 201", resp.StatusCode)
	}
}

// TestV1RouteAliases checks that /v1/ is the only API surface: every
// route answers there, and no route has an unprefixed alias.
func TestV1RouteAliases(t *testing.T) {
	_, srv := newTestServer(t, Config{Budget: [env.StageCount]int{8, 8, 8, 8}})

	// Submit through the versioned path, with the striping knob set.
	resp := postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{
		Name:    "v1-job",
		Dataset: dataset(1, 1<<20),
		Conns:   3,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/jobs status %d", resp.StatusCode)
	}
	st := decodeStatus(t, resp)

	job := fmt.Sprintf("/jobs/%d", st.ID)
	for _, path := range []string{"/healthz", "/metrics", "/jobs", job, "/debug/flight"} {
		for prefix, want := range map[string]int{"/v1": http.StatusOK, "": http.StatusNotFound} {
			r, err := http.Get(srv.URL + prefix + path)
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			if r.StatusCode != want {
				t.Fatalf("GET %s status %d, want %d", prefix+path, r.StatusCode, want)
			}
		}
	}
	for _, path := range []string{"/jobs", job + "/cancel"} {
		r := postJSON(t, srv.URL+path, SubmitRequest{Name: "unprefixed", Dataset: dataset(1, 1<<20)})
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("POST %s status %d, want 404", path, r.StatusCode)
		}
	}

	// Cancel through the versioned path.
	r, err := http.NewRequest(http.MethodDelete, srv.URL+fmt.Sprintf("/v1/jobs/%d", st.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(r)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK && dresp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE /v1/jobs/%d status %d", st.ID, dresp.StatusCode)
	}
}

func TestHTTPFleetStatus(t *testing.T) {
	fr := &FleetRunner{Size: 2, Verify: true}
	t.Cleanup(fr.Close)
	_, srv := newTestServer(t, Config{
		Budget: [env.StageCount]int{8, 8, 8, 8},
		Runner: fr,
	})

	resp, err := http.Get(srv.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/fleet status %d", resp.StatusCode)
	}
	var st FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Size != 2 || len(st.Endpoints) != 2 {
		t.Fatalf("fleet status = %+v, want 2 endpoints", st)
	}
	for _, ep := range st.Endpoints {
		if !ep.Live || ep.Addr == "" {
			t.Fatalf("endpoint not live or unaddressed: %+v", ep)
		}
	}

	// A runner that is not a fleet answers 404.
	_, plain := newTestServer(t, Config{
		Budget: [env.StageCount]int{8, 8, 8, 8},
		Runner: RunnerFunc(func(context.Context, JobSpec, env.Controller) (*transfer.Result, error) {
			return &transfer.Result{}, nil
		}),
	})
	r, err := http.Get(plain.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/fleet on non-fleet runner: status %d, want 404", r.StatusCode)
	}
}
