package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"

	"automdt/internal/flight"
	"automdt/internal/transfer"
	"automdt/internal/workload"
)

// SubmitRequest is the JSON body of POST /jobs.
type SubmitRequest struct {
	Name       string `json:"name"`
	Priority   int    `json:"priority,omitempty"`
	MaxRetries int    `json:"max_retries,omitempty"`
	// Dataset declares the files to transfer.
	Dataset workload.Spec `json:"dataset"`
	// DestDir is refused when non-empty: every job writes into the
	// fleet's one shared destination store. The field stays so the
	// refusal can name it.
	DestDir string `json:"dest_dir,omitempty"`
	// Engine knobs (zero values take transfer.Config defaults).
	ChunkBytes      int `json:"chunk_bytes,omitempty"`
	MaxThreads      int `json:"max_threads,omitempty"`
	InitialThreads  int `json:"initial_threads,omitempty"`
	ProbeIntervalMs int `json:"probe_interval_ms,omitempty"`
	// Conns is the number of parallel data connections the job's sender
	// opens (the striping width); 0 means one.
	Conns int `json:"conns,omitempty"`
	// DisableChecksums is refused when true: every session verifies
	// frame CRCs and end-to-end file sums. The field stays so the
	// refusal can name it.
	DisableChecksums bool `json:"disable_checksums,omitempty"`
}

// spec converts the request into a JobSpec. maxGrant is the largest
// per-stage budget the scheduler can grant one job; an explicit
// max_threads above it is refused.
func (r SubmitRequest) spec(maxGrant int) (JobSpec, error) {
	if r.DestDir != "" {
		return JobSpec{}, errors.New("dest_dir is not supported: every job writes into the fleet's shared destination store")
	}
	if r.DisableChecksums {
		return JobSpec{}, errors.New("disable_checksums is not supported: every session verifies frame and file checksums")
	}
	if r.MaxThreads > maxGrant {
		return JobSpec{}, fmt.Errorf("max_threads %d exceeds the largest per-stage budget %d", r.MaxThreads, maxGrant)
	}
	m, err := r.Dataset.Build()
	if err != nil {
		return JobSpec{}, err
	}
	return JobSpec{
		Name:       r.Name,
		Manifest:   m,
		Priority:   r.Priority,
		MaxRetries: r.MaxRetries,
		Transfer: transfer.Config{
			ChunkBytes:     r.ChunkBytes,
			MaxThreads:     r.MaxThreads,
			InitialThreads: r.InitialThreads,
			ProbeInterval:  time.Duration(r.ProbeIntervalMs) * time.Millisecond,
			Conns:          r.Conns,
		},
	}, nil
}

// NewHandler exposes a Scheduler over HTTP. Every route lives under
// /v1/ (see docs/OPERATIONS.md for the stability contract):
//
//	POST   /v1/jobs             submit a SubmitRequest, returns the JobStatus
//	GET    /v1/jobs             list all jobs
//	GET    /v1/jobs/{id}        one job's status
//	POST   /v1/jobs/{id}/cancel cancel a queued or running job
//	DELETE /v1/jobs/{id}        same as cancel
//	GET    /v1/fleet            receiver-fleet membership and placement counters
//	GET    /v1/debug/flight     decision flight-recorder dump
//	GET    /v1/metrics          text-format metrics snapshot
//	GET    /v1/healthz          liveness probe
//
// GET /v1/fleet answers 404 only when the scheduler's runner is not a
// fleet (a test's RunnerFunc); the daemon always runs one.
func NewHandler(s *Scheduler) http.Handler {
	mux := http.NewServeMux()

	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(v)
	}
	writeErr := func(w http.ResponseWriter, code int, err error) {
		writeJSON(w, code, map[string]string{"error": err.Error()})
	}
	jobID := func(w http.ResponseWriter, r *http.Request) (int64, bool) {
		id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad job id %q", r.PathValue("id")))
			return 0, false
		}
		return id, true
	}
	cancel := func(w http.ResponseWriter, r *http.Request) {
		id, ok := jobID(w, r)
		if !ok {
			return
		}
		if err := s.Cancel(id); err != nil {
			code := http.StatusConflict
			if errors.Is(err, ErrNotFound) {
				code = http.StatusNotFound
			}
			writeErr(w, code, err)
			return
		}
		st, _ := s.Status(id)
		writeJSON(w, http.StatusOK, st)
	}

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		// A submit body is a small JSON document; bound it so no client
		// can stream the daemon out of memory.
		r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
		var req SubmitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
			return
		}
		spec, err := req.spec(slices.Max(s.cfg.Budget[:]))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		id, err := s.Submit(spec)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrClosed) {
				code = http.StatusServiceUnavailable
			}
			writeErr(w, code, err)
			return
		}
		st, _ := s.Status(id)
		writeJSON(w, http.StatusCreated, st)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := jobID(w, r)
		if !ok {
			return
		}
		st, err := s.Status(id)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", cancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", cancel)
	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		type fleetStatuser interface{ Status() FleetStatus }
		fs, ok := s.Runner().(fleetStatuser)
		if !ok {
			writeErr(w, http.StatusNotFound, errors.New("scheduler runner is not a receiver fleet"))
			return
		}
		writeJSON(w, http.StatusOK, fs.Status())
	})
	mux.HandleFunc("GET /v1/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		var since uint64
		if v := r.URL.Query().Get("since"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad since %q", v))
				return
			}
			since = n
		}
		writeJSON(w, http.StatusOK, flight.Default().DumpFile(r.URL.Query().Get("source"), since))
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := s.Snapshot()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		w.Write([]byte(snap.Text()))
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}
