package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// TestDistributedSweepTracePropagation pins the coordinator half of the
// stitched trace: the sweep root span's context rides every lease
// response, the middleware parents server spans under incoming
// traceparent headers, and settle closes the root span with the terminal
// state.
func TestDistributedSweepTracePropagation(t *testing.T) {
	m := New(Options{Workers: 1, LeaseTTL: time.Minute})
	defer m.Close()
	req := distTestRequest()
	oracle := runLocally(t, req)

	job, err := m.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := m.LeaseCells(job.ID(), "w1", 10)
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := obs.ParseTraceparent(lr.Trace)
	if !ok {
		t.Fatalf("lease response trace %q does not parse", lr.Trace)
	}

	// A worker-style request carrying the propagated context gets a
	// server span in the same trace.
	h := NewHandlerWith(m, nil)
	body, _ := json.Marshal(HeartbeatRequest{Worker: "w1"})
	hr := httptest.NewRequest("POST", "/sweeps/"+job.ID()+"/heartbeat", bytes.NewReader(body))
	obs.Inject(sc, hr.Header)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, hr)
	if rec.Code != http.StatusOK {
		t.Fatalf("heartbeat → %d: %s", rec.Code, rec.Body.String())
	}

	for _, l := range lr.Leases {
		if _, err := m.CompleteCell(job.ID(), "w1", l.LeaseID, oracle.Cells[l.Index]); err != nil {
			t.Fatal(err)
		}
	}
	if job.State() != StateDone {
		t.Fatalf("job %s, want done", job.State())
	}

	spans := obs.DefaultTracer().Filtered(obs.TraceFilter{Trace: sc.Trace})
	var root, server *obs.SpanRecord
	for i := range spans {
		switch spans[i].Name {
		case "sweep.coordinate":
			root = &spans[i]
		case "http.server":
			server = &spans[i]
		}
	}
	if root == nil {
		t.Fatalf("sweep root span never recorded; trace spans: %+v", spans)
	}
	if root.ID != sc.Span {
		t.Fatalf("propagated span id %d is not the root span %d", sc.Span, root.ID)
	}
	attrs := map[string]string{}
	for _, a := range root.Attrs[:root.NAttrs] {
		attrs[a.Key] = a.Value()
	}
	if attrs["sweep"] != job.ID() || attrs["cells"] != "2" || attrs["state"] != "done" {
		t.Fatalf("root span attrs %v", attrs)
	}
	if server == nil {
		t.Fatal("traced heartbeat request recorded no server span")
	}
	if server.Parent != root.ID {
		t.Fatalf("server span parent %d, want root %d", server.Parent, root.ID)
	}

	// An untraced request records nothing: poll noise stays out of the ring.
	before := obs.DefaultTracer().Total()
	plain := httptest.NewRecorder()
	h.ServeHTTP(plain, httptest.NewRequest("GET", "/healthz", nil))
	if plain.Code != http.StatusOK || obs.DefaultTracer().Total() != before {
		t.Fatalf("untraced request recorded a span (total %d → %d)", before, obs.DefaultTracer().Total())
	}
}

// TestSweepTimelineEndpoint drives a lease → expiry → re-lease → complete
// history and checks GET /sweeps/{id}/timeline serves it, with the error
// statuses of the other dist endpoints.
func TestSweepTimelineEndpoint(t *testing.T) {
	m := New(Options{Workers: 1, LeaseTTL: 10 * time.Second})
	defer m.Close()
	now := time.Unix(9000, 0)
	m.now = func() time.Time { return now }

	req := distTestRequest()
	oracle := runLocally(t, req)
	job, err := m.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LeaseCells(job.ID(), "w-dead", 2); err != nil {
		t.Fatal(err)
	}
	now = now.Add(11 * time.Second) // both leases die
	lr, err := m.LeaseCells(job.ID(), "w2", 2)
	if err != nil || len(lr.Leases) != 2 {
		t.Fatalf("re-lease: %+v %v", lr, err)
	}
	for _, l := range lr.Leases {
		if _, err := m.CompleteCell(job.ID(), "w2", l.LeaseID, oracle.Cells[l.Index]); err != nil {
			t.Fatal(err)
		}
	}

	h := NewHandlerWith(m, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/sweeps/"+job.ID()+"/timeline", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET timeline → %d: %s", rec.Code, rec.Body.String())
	}
	var tl shard.Timeline
	if err := json.Unmarshal(rec.Body.Bytes(), &tl); err != nil {
		t.Fatal(err)
	}
	counts := map[shard.EventKind]int{}
	for _, e := range tl.Events {
		counts[e.Kind]++
	}
	if counts[shard.EventLeased] != 4 || counts[shard.EventExpired] != 2 || counts[shard.EventCompleted] != 2 {
		t.Fatalf("event counts %v from %+v", counts, tl.Events)
	}
	for _, e := range tl.Events {
		if e.Kind == shard.EventExpired && e.Worker != "w-dead" {
			t.Fatalf("expiry attributed to %q, want w-dead", e.Worker)
		}
	}

	// Unknown sweep → 404; non-distributed job → 409.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/sweeps/nope/timeline", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown sweep timeline → %d", rec.Code)
	}
}
