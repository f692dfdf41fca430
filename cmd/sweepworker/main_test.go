package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sweep"
)

// testSweep is a 4-cell sweep, small enough to run inline but with enough
// cells that two workers genuinely interleave.
func testSweep() service.SweepRequest {
	return service.SweepRequest{
		Model: "uniform",
		Seed:  11,
		Grid: []sweep.Axis{
			{Name: "n", Values: []float64{8, 12}},
			{Name: "lifetime", Values: []float64{4, 8}},
		},
		Precision:   sweep.Precision{MinTrials: 8, MaxTrials: 32, Batch: 8},
		Distributed: true,
	}
}

// oracle computes the single-node checkpoint encoding the distributed run
// must reproduce bit-for-bit.
func oracle(t *testing.T, req service.SweepRequest) []byte {
	t.Helper()
	req = req.Canonical()
	src, err := req.Target().Source()
	if err != nil {
		t.Fatal(err)
	}
	s := req.Spec()
	s.Source = src
	cp, err := s.Run(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newWorker(base, sweepID, name string) *worker {
	return &worker{
		base:         base,
		sweepID:      sweepID,
		name:         name,
		maxCells:     2,
		trialWorkers: 1,
		poll:         10 * time.Millisecond,
		client:       &http.Client{Timeout: 10 * time.Second},
	}
}

// TestWorkerRunsSweepToCompletion: one worker drains the whole grid and
// the coordinator's durable checkpoint equals the single-node bytes.
func TestWorkerRunsSweepToCompletion(t *testing.T) {
	ckptDir := t.TempDir()
	m := service.New(service.Options{Workers: 1, LeaseTTL: time.Minute, CheckpointDir: ckptDir})
	defer m.Close()
	srv := httptest.NewServer(service.NewHandlerWith(m, nil))
	defer srv.Close()

	req := testSweep()
	job, err := m.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}

	w := newWorker(srv.URL, job.ID(), "w1")
	if err := w.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if job.State() != service.StateDone {
		t.Fatalf("job %s after worker drained it", job.State())
	}

	want := oracle(t, req)
	got, err := os.ReadFile(filepath.Join(ckptDir, job.ID()+".ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed checkpoint differs from single-node:\n%s\nvs\n%s", got, want)
	}
}

// TestTwoWorkersOneDiesMidRun is the headline acceptance scenario: two
// workers share the grid, one dies after its first completed cell while
// still holding a lease, and the survivor — after the straggler lease
// expires — finishes the sweep bit-identically to a single-node run.
func TestTwoWorkersOneDiesMidRun(t *testing.T) {
	ckptDir := t.TempDir()
	m := service.New(service.Options{
		Workers:       1,
		LeaseTTL:      300 * time.Millisecond,
		CheckpointDir: ckptDir,
	})
	defer m.Close()
	srv := httptest.NewServer(service.NewHandlerWith(m, nil))
	defer srv.Close()

	req := testSweep()
	job, err := m.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}

	// Worker 1 leases two cells but "dies" (context cancelled, no clean
	// handoff) right after reporting the first — its second lease is left
	// dangling until the TTL reclaims it.
	dieCtx, die := context.WithCancel(context.Background())
	w1 := newWorker(srv.URL, job.ID(), "w1")
	w1.afterCell = func(int) { die() }
	if err := w1.run(dieCtx); !errors.Is(err, context.Canceled) {
		t.Fatalf("dying worker returned %v, want context.Canceled", err)
	}
	if job.State() != service.StateRunning {
		t.Fatalf("job %s after partial worker, want running", job.State())
	}

	w2 := newWorker(srv.URL, job.ID(), "w2")
	done := make(chan error, 1)
	go func() { done <- w2.run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("surviving worker did not finish the sweep")
	}
	if job.State() != service.StateDone {
		t.Fatalf("job %s after surviving worker, want done", job.State())
	}
	if v := job.View(); v.Shard.Expired == 0 {
		t.Fatal("no lease expired — the dead worker's lease was never reclaimed")
	}

	want := oracle(t, req)
	got, err := os.ReadFile(filepath.Join(ckptDir, job.ID()+".ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint after worker death differs from single-node:\n%s\nvs\n%s", got, want)
	}

	// The HTTP checkpoint view serves the same bytes.
	resp, err := http.Get(srv.URL + "/sweeps/" + job.ID() + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("GET /sweeps/{id}/checkpoint differs from single-node bytes")
	}
}

// TestWorkerStopsOnCancelledSweep: cancelling the sweep turns the worker
// away cleanly (exit 0 path), whether it is polling or mid-report.
func TestWorkerStopsOnCancelledSweep(t *testing.T) {
	m := service.New(service.Options{Workers: 1, LeaseTTL: time.Minute})
	defer m.Close()
	srv := httptest.NewServer(service.NewHandlerWith(m, nil))
	defer srv.Close()

	job, err := m.SubmitSweep(testSweep())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
	w := newWorker(srv.URL, job.ID(), "w1")
	if err := w.run(context.Background()); err != nil {
		t.Fatalf("worker on cancelled sweep returned %v, want clean exit", err)
	}
}

// TestWorkerRejectsSpecMismatch: a coordinator whose fingerprint does not
// match what the worker computes locally is version skew — fatal, not
// retried.
func TestWorkerRejectsSpecMismatch(t *testing.T) {
	req := testSweep()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sweeps/x/lease", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		rw.Write([]byte(`{"sweep_id":"x","state":"running","spec":"kind=proportion|DIFFERENT","request":` +
			encodeJSON(t, req) + `,"leases":[{"lease_id":1,"index":0,"values":{"n":8},"seed":1,"ttl_ms":60000}]}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	w := newWorker(srv.URL, "x", "w1")
	err := w.run(context.Background())
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("fingerprint mismatch")) {
		t.Fatalf("worker accepted a mismatched spec: %v", err)
	}
}

// TestWorkerStitchesTrace runs a full distributed sweep in-process and
// checks the trace that falls out: the worker adopts the coordinator's
// sweep-root context from the lease response, every cell gets a
// worker.cell span parented under the root, and each /cells report's
// server span parents under its cell span — one connected tree across
// both halves of the protocol.
func TestWorkerStitchesTrace(t *testing.T) {
	m := service.New(service.Options{Workers: 1, LeaseTTL: time.Minute})
	defer m.Close()
	srv := httptest.NewServer(service.NewHandlerWith(m, nil))
	defer srv.Close()

	job, err := m.SubmitSweep(testSweep())
	if err != nil {
		t.Fatal(err)
	}
	w := newWorker(srv.URL, job.ID(), "w1")
	if err := w.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !w.sweepCtx.Valid() {
		t.Fatal("worker never adopted the coordinator's trace context")
	}

	spans := obs.DefaultTracer().Filtered(obs.TraceFilter{Trace: w.sweepCtx.Trace})
	cells := map[uint64]bool{} // worker.cell span ids
	var reports int
	for _, s := range spans {
		switch s.Name {
		case "worker.cell":
			if s.Parent != w.sweepCtx.Span {
				t.Fatalf("worker.cell parent %d, want sweep root %d", s.Parent, w.sweepCtx.Span)
			}
			attrs := map[string]string{}
			for _, a := range s.Attrs[:s.NAttrs] {
				attrs[a.Key] = a.Value()
			}
			if attrs["worker"] != "w1" || attrs["cell"] == "" || attrs["lease"] == "" {
				t.Fatalf("worker.cell attrs %v", attrs)
			}
			cells[s.ID] = true
		}
	}
	if len(cells) != 4 {
		t.Fatalf("%d worker.cell spans, want one per cell (4)", len(cells))
	}
	for _, s := range spans {
		if s.Name == "http.server" && cells[s.Parent] {
			reports++
		}
	}
	if reports != 4 {
		t.Fatalf("%d /cells server spans parented under cell spans, want 4", reports)
	}

	// The dump the -trace-out flag writes decodes and carries the trace.
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTraceDump(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump obs.TraceDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Proc == "" || dump.BaseUnixNS == 0 {
		t.Fatalf("dump missing process anchor: %+v", dump)
	}
	want := w.sweepCtx.Trace.String()
	found := false
	for _, s := range dump.Spans {
		if s.Trace == want {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("trace %s absent from -trace-out dump", want)
	}
}

// TestNextBackoffBounds pins the decorrelated-jitter envelope: every step
// stays in [base, cap], and the reachable ceiling actually grows toward
// the cap rather than sticking at base.
func TestNextBackoffBounds(t *testing.T) {
	const base = 100 * time.Millisecond
	sawAboveDouble := false
	for trial := 0; trial < 200; trial++ {
		prev := base
		for step := 0; step < 8; step++ {
			next := nextBackoff(prev, base)
			if next < base || next > backoffCap {
				t.Fatalf("backoff %v escaped [%v, %v]", next, base, backoffCap)
			}
			if next > 2*base {
				sawAboveDouble = true
			}
			prev = next
		}
	}
	if !sawAboveDouble {
		t.Fatal("backoff never exceeded 2×base across 200 trials — jitter looks broken")
	}
	if got := nextBackoff(backoffCap, backoffCap); got != backoffCap {
		t.Fatalf("degenerate cap==base case: %v, want %v", got, backoffCap)
	}
}

func encodeJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
