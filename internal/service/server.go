package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/avail"
	"repro/internal/shard"
)

// ExperimentInfo is the registry metadata served by GET /experiments.
type ExperimentInfo struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	Anchor string `json:"anchor"`
}

// NewHandlerWith exposes the manager as a JSON HTTP API:
//
//	GET    /healthz                    liveness probe
//	GET    /stats                      Stats snapshot (cache hit rate, in-flight, …)
//	GET    /experiments                registry metadata
//	GET    /experiments/{id}           one registry entry
//	GET    /models                     availability-model registry (internal/avail)
//	GET    /models/{name}              one model with its parameter knobs
//	POST   /jobs                       submit a Request; 200 on cache hit, 202 when queued
//	GET    /jobs                       all jobs in submission order
//	GET    /jobs/{id}                  job status with live trial progress
//	GET    /jobs/{id}/result?format=F  completed result; F ∈ {json, csv, md}
//	POST   /jobs/{id}/cancel           cancel a queued or running job
//	DELETE /jobs/{id}                  alias for cancel
//	POST   /sweeps                     submit a SweepRequest (adaptive grid sweep)
//	GET    /sweeps                     sweep jobs in submission order
//	GET    /sweeps/{id}                sweep status with per-cell + per-trial progress
//	GET    /sweeps/{id}/result?format=F  completed sweep result
//	POST   /sweeps/{id}/lease          distributed sweeps: pull cell leases (LeaseRequest)
//	POST   /sweeps/{id}/cells          distributed sweeps: report a completed cell
//	POST   /sweeps/{id}/heartbeat      distributed sweeps: extend a worker's leases
//	GET    /sweeps/{id}/checkpoint     distributed sweeps: current checkpoint (partial mid-run)
//	GET    /sweeps/{id}/timeline       distributed sweeps: per-cell lease/expiry/completion event log
//
// Sweep jobs share the job id space, the worker pool and the result
// cache with experiment jobs, so /jobs/{id} and cancel work on them too;
// the /sweeps views just reject non-sweep ids.
//
// Errors are {"error": "..."} with conventional status codes: 400 for
// malformed requests, 413 for oversized bodies (submit bodies are bounded
// by DefaultMaxBodySize).
//
// When qe is non-nil the handler also serves the query surface
//
//	GET  /query?src=&dst=&start=[&journey=1]  point query (arrival, journey)
//	POST /query                               batch of point queries
//	GET  /query/stats                         network + index snapshot
//
// over the engine's loaded network (see cmd/serve's -net flag).
func NewHandlerWith(m *Manager, qe *QueryEngine) http.Handler {
	mux := http.NewServeMux()
	if qe != nil {
		qe.register(mux)
	}

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Stats())
	})

	mux.HandleFunc("GET /experiments", func(w http.ResponseWriter, r *http.Request) {
		all := m.opts.List()
		infos := make([]ExperimentInfo, len(all))
		for i, e := range all {
			infos[i] = ExperimentInfo{ID: e.ID, Title: e.Title, Anchor: e.Anchor}
		}
		writeJSON(w, http.StatusOK, infos)
	})

	mux.HandleFunc("GET /experiments/{id}", func(w http.ResponseWriter, r *http.Request) {
		e, ok := m.opts.Lookup(Request{Experiment: r.PathValue("id")}.Canonical().Experiment)
		if !ok {
			writeErr(w, http.StatusNotFound, "unknown experiment %q", r.PathValue("id"))
			return
		}
		writeJSON(w, http.StatusOK, ExperimentInfo{ID: e.ID, Title: e.Title, Anchor: e.Anchor})
	})

	mux.HandleFunc("GET /models", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, avail.Builders())
	})

	mux.HandleFunc("GET /models/{name}", func(w http.ResponseWriter, r *http.Request) {
		b, ok := avail.Lookup(r.PathValue("name"))
		if !ok {
			writeErr(w, http.StatusNotFound, "unknown model %q", r.PathValue("name"))
			return
		}
		writeJSON(w, http.StatusOK, b)
	})

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if !decodeBody(w, r, DefaultMaxBodySize, &req) {
			return
		}
		job, err := m.Submit(req)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, ErrShuttingDown) {
				status = http.StatusServiceUnavailable
			}
			writeErr(w, status, "%v", err)
			return
		}
		status := http.StatusAccepted
		if job.State() == StateDone {
			status = http.StatusOK // served from cache
		}
		writeJSON(w, status, job.View())
	})

	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := m.Jobs()
		views := make([]View, len(jobs))
		for i, j := range jobs {
			views[i] = j.View()
		}
		writeJSON(w, http.StatusOK, views)
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
			return
		}
		writeJSON(w, http.StatusOK, job.View())
	})

	// serveResult renders a done job's payload in the requested format;
	// shared by the /jobs and /sweeps result endpoints.
	serveResult := func(w http.ResponseWriter, r *http.Request, job *Job) {
		payload, ok := job.Payload()
		if !ok {
			writeErr(w, http.StatusConflict, "job %s is %s, result available only when done",
				job.ID(), job.State())
			return
		}
		data, contentType, err := payload.Encode(r.URL.Query().Get("format"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		w.Header().Set("Content-Type", contentType)
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	}

	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
			return
		}
		serveResult(w, r, job)
	})

	mux.HandleFunc("POST /sweeps", func(w http.ResponseWriter, r *http.Request) {
		var req SweepRequest
		if !decodeBody(w, r, DefaultMaxBodySize, &req) {
			return
		}
		job, err := m.SubmitSweep(req)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, ErrShuttingDown) {
				status = http.StatusServiceUnavailable
			}
			writeErr(w, status, "%v", err)
			return
		}
		status := http.StatusAccepted
		if job.State() == StateDone {
			status = http.StatusOK // served from cache
		}
		writeJSON(w, status, job.View())
	})

	mux.HandleFunc("GET /sweeps", func(w http.ResponseWriter, r *http.Request) {
		views := []View{}
		for _, j := range m.Jobs() {
			if j.IsSweep() {
				views = append(views, j.View())
			}
		}
		writeJSON(w, http.StatusOK, views)
	})

	getSweep := func(w http.ResponseWriter, r *http.Request) (*Job, bool) {
		job, ok := m.Get(r.PathValue("id"))
		if !ok || !job.IsSweep() {
			writeErr(w, http.StatusNotFound, "no such sweep %q", r.PathValue("id"))
			return nil, false
		}
		return job, true
	}

	mux.HandleFunc("GET /sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		if job, ok := getSweep(w, r); ok {
			writeJSON(w, http.StatusOK, job.View())
		}
	})

	mux.HandleFunc("GET /sweeps/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		if job, ok := getSweep(w, r); ok {
			serveResult(w, r, job)
		}
	})

	// Distributed-sweep lease protocol (see dist.go and cmd/sweepworker):
	// workers pull cell leases, heartbeat while a cell runs, and report
	// completed cells; the checkpoint endpoint serves the coordinator's
	// current durable progress (partial mid-run, complete when done),
	// bit-identical to a single-node run's checkpoint file.
	distErr := func(w http.ResponseWriter, err error) {
		status := http.StatusBadRequest
		switch {
		case strings.Contains(err.Error(), "no such sweep"):
			status = http.StatusNotFound
		case errors.Is(err, ErrNotDistributed), errors.Is(err, shard.ErrClosed), errors.Is(err, shard.ErrMismatch):
			status = http.StatusConflict
		case errors.Is(err, shard.ErrBadCell):
			status = http.StatusUnprocessableEntity
		}
		writeErr(w, status, "%v", err)
	}

	mux.HandleFunc("POST /sweeps/{id}/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeBody(w, r, DefaultMaxBodySize, &req) {
			return
		}
		resp, err := m.LeaseCells(r.PathValue("id"), req.Worker, req.Max)
		if err != nil {
			distErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("POST /sweeps/{id}/cells", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodeBody(w, r, DefaultMaxBodySize, &req) {
			return
		}
		resp, err := m.CompleteCell(r.PathValue("id"), req.Worker, req.LeaseID, req.Cell)
		if err != nil {
			distErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("POST /sweeps/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodeBody(w, r, DefaultMaxBodySize, &req) {
			return
		}
		resp, err := m.HeartbeatWorker(r.PathValue("id"), req.Worker)
		if err != nil {
			distErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("GET /sweeps/{id}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		job, err := m.distJob(r.PathValue("id"))
		if err != nil {
			distErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		job.board.Checkpoint().Encode(w)
	})

	mux.HandleFunc("GET /sweeps/{id}/timeline", func(w http.ResponseWriter, r *http.Request) {
		tl, err := m.SweepTimeline(r.PathValue("id"))
		if err != nil {
			distErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, tl)
	})

	cancel := func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		job, ok := m.Get(id)
		if !ok {
			writeErr(w, http.StatusNotFound, "no such job %q", id)
			return
		}
		if err := m.Cancel(id); err != nil {
			writeErr(w, http.StatusConflict, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, job.View())
	}
	mux.HandleFunc("POST /jobs/{id}/cancel", cancel)
	mux.HandleFunc("DELETE /jobs/{id}", cancel)

	return instrumentHTTP(mux)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
