package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/sweep"
)

// distTestRequest is a small 2-cell distributed sweep over the uniform
// model, fast enough to execute inline in tests.
func distTestRequest() SweepRequest {
	return SweepRequest{
		Model: "uniform",
		Seed:  5,
		Grid: []sweep.Axis{
			{Name: "n", Values: []float64{8}},
			{Name: "lifetime", Values: []float64{4, 8}},
		},
		Precision:   sweep.Precision{MinTrials: 8, MaxTrials: 32, Batch: 8},
		Distributed: true,
	}
}

// runLocally computes the request's checkpoint the single-node way — the
// oracle every distributed result must match bit-for-bit.
func runLocally(t *testing.T, req SweepRequest) *sweep.Checkpoint {
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
	return cp
}

func encodeCheckpoint(t *testing.T, cp *sweep.Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDistributedSweepLifecycle drives a full coordinator run through the
// Manager API: submit, lease, complete (with a duplicate in the middle),
// settle, durable checkpoints, and the result-cache fold.
func TestDistributedSweepLifecycle(t *testing.T) {
	ckptDir := t.TempDir()
	m := New(Options{Workers: 1, LeaseTTL: time.Minute, CheckpointDir: ckptDir})
	defer m.Close()

	req := distTestRequest()
	oracle := runLocally(t, req)

	job, err := m.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if job.State() != StateRunning {
		t.Fatalf("distributed submit → %s, want running", job.State())
	}
	view := job.View()
	if view.Shard == nil || view.Shard.Pending != 2 {
		t.Fatalf("view.Shard = %+v, want 2 pending", view.Shard)
	}

	resp, err := m.LeaseCells(job.ID(), "w1", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Leases) != 2 || resp.CellsTotal != 2 {
		t.Fatalf("lease response %+v, want both cells", resp)
	}
	if want := req.Canonical().Spec().SpecKey(); resp.Spec != want {
		t.Fatalf("lease spec %q, want %q", resp.Spec, want)
	}
	for _, l := range resp.Leases {
		if want := sweep.CellSeed(req.Seed, l.Index); l.Seed != want {
			t.Fatalf("lease %d seed %d, want %d", l.Index, l.Seed, want)
		}
	}

	// Complete cell 0; the sweep is half done and the partial checkpoint
	// is already durable on disk.
	cr, err := m.CompleteCell(job.ID(), "w", resp.Leases[0].LeaseID, oracle.Cells[0])
	if err != nil || cr.Status != string(shard.Accepted) || cr.Done {
		t.Fatalf("first completion → %+v, %v", cr, err)
	}
	ckptPath := filepath.Join(ckptDir, job.ID()+".ckpt.json")
	partial, err := sweep.ReadCheckpointFile(ckptPath)
	if err != nil {
		t.Fatalf("partial checkpoint unreadable: %v", err)
	}
	if len(partial.Cells) != 1 || partial.Spec != oracle.Spec {
		t.Fatalf("partial checkpoint %+v", partial)
	}

	// A straggler re-reports cell 0 bit-identically: counted duplicate.
	cr, err = m.CompleteCell(job.ID(), "w", resp.Leases[0].LeaseID, oracle.Cells[0])
	if err != nil || cr.Status != string(shard.Duplicate) {
		t.Fatalf("duplicate completion → %+v, %v", cr, err)
	}

	cr, err = m.CompleteCell(job.ID(), "w", resp.Leases[1].LeaseID, oracle.Cells[1])
	if err != nil || cr.Status != string(shard.Accepted) || !cr.Done {
		t.Fatalf("final completion → %+v, %v", cr, err)
	}
	if job.State() != StateDone {
		t.Fatalf("job %s after last cell, want done", job.State())
	}

	// The final durable checkpoint is bit-identical to the single-node
	// run's encoding.
	final, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final, encodeCheckpoint(t, oracle)) {
		t.Fatalf("distributed checkpoint differs from single-node:\n%s\nvs\n%s", final, encodeCheckpoint(t, oracle))
	}

	// The payload entered the shared result cache: a local (non-
	// distributed) resubmission completes instantly from cache with the
	// exact payload a pool run would have produced.
	local := req
	local.Distributed = false
	job2, err := m.SubmitSweep(local)
	if err != nil {
		t.Fatal(err)
	}
	if job2.State() != StateDone || !job2.View().FromCache {
		t.Fatalf("cache fold missing: state %s fromCache %v", job2.State(), job2.View().FromCache)
	}
	p1, _ := job.Payload()
	p2, _ := job2.Payload()
	b1, _, err := p1.Encode("json")
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err2 := p2.Encode("json")
	if err2 != nil {
		t.Fatal(err2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cached payload differs from distributed payload")
	}

	// A distributed resubmission also hits the cache — and its lease
	// endpoint reports the terminal state instead of erroring.
	job3, err := m.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if job3.State() != StateDone {
		t.Fatalf("cached distributed submit → %s", job3.State())
	}
	lr, err := m.LeaseCells(job3.ID(), "w9", 1)
	if err != nil || !lr.State.Terminal() || len(lr.Leases) != 0 {
		t.Fatalf("lease on cached sweep → %+v, %v", lr, err)
	}
}

// TestDistributedExpiryReLease pins straggler handling through the
// manager's injected clock: a dead worker's cell is re-leased after the
// TTL and the sweep still finishes bit-identically.
func TestDistributedExpiryReLease(t *testing.T) {
	m := New(Options{Workers: 1, LeaseTTL: 10 * time.Second})
	defer m.Close()
	now := time.Unix(5000, 0)
	m.now = func() time.Time { return now }

	req := distTestRequest()
	oracle := runLocally(t, req)
	job, err := m.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}

	dead, err := m.LeaseCells(job.ID(), "w-dead", 1)
	if err != nil || len(dead.Leases) != 1 {
		t.Fatalf("lease → %+v, %v", dead, err)
	}
	// Within TTL the cell is locked away from other workers.
	now = now.Add(5 * time.Second)
	if r, _ := m.LeaseCells(job.ID(), "w2", 10); len(r.Leases) != 1 {
		t.Fatalf("expected only the unleased cell, got %d leases", len(r.Leases))
	}
	// Past TTL the dead worker's cell comes back.
	now = now.Add(6 * time.Second)
	r2, err := m.LeaseCells(job.ID(), "w2", 10)
	if err != nil || len(r2.Leases) != 1 || r2.Leases[0].Index != dead.Leases[0].Index {
		t.Fatalf("re-lease after expiry → %+v, %v", r2, err)
	}
	if v := job.View(); v.Shard.Expired != 1 {
		t.Fatalf("view.Shard.Expired = %d, want 1", v.Shard.Expired)
	}
	for _, cell := range oracle.Cells {
		if _, err := m.CompleteCell(job.ID(), "w", 0, cell); err != nil {
			t.Fatal(err)
		}
	}
	if job.State() != StateDone {
		t.Fatalf("job %s, want done", job.State())
	}
}

// TestDistributedCancel: cancelling a coordinator job closes the lease
// table — workers are turned away rather than computing into the void.
func TestDistributedCancel(t *testing.T) {
	m := New(Options{Workers: 1, LeaseTTL: time.Minute})
	defer m.Close()
	req := distTestRequest()
	job, err := m.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := m.LeaseCells(job.ID(), "w1", 1)
	if err != nil || len(lr.Leases) != 1 {
		t.Fatalf("lease → %+v, %v", lr, err)
	}
	if err := m.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
	if job.State() != StateCancelled {
		t.Fatalf("job %s after cancel", job.State())
	}
	// Lease requests now report the terminal state; completions error.
	after, err := m.LeaseCells(job.ID(), "w1", 1)
	if err != nil || !after.State.Terminal() || len(after.Leases) != 0 {
		t.Fatalf("lease after cancel → %+v, %v", after, err)
	}
	oracle := runLocally(t, req)
	if _, err := m.CompleteCell(job.ID(), "w", lr.Leases[0].LeaseID, oracle.Cells[0]); !errors.Is(err, shard.ErrClosed) {
		t.Fatalf("complete after cancel → %v, want ErrClosed", err)
	}
	if _, err := m.HeartbeatWorker(job.ID(), "w1"); err != nil {
		t.Fatalf("heartbeat after cancel should degrade to a state report, got %v", err)
	}
}

// TestDistributedHTTPEndpoints exercises the lease protocol over the real
// handler, including the error statuses workers key their retry logic on.
func TestDistributedHTTPEndpoints(t *testing.T) {
	m := New(Options{Workers: 1, LeaseTTL: time.Minute})
	defer m.Close()
	h := NewHandlerWith(m, nil)
	req := distTestRequest()
	oracle := runLocally(t, req)

	post := func(path string, body any) *httptest.ResponseRecorder {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(b)))
		return rec
	}

	rec := post("/sweeps", req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /sweeps → %d: %s", rec.Code, rec.Body.String())
	}
	var v View
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.State != StateRunning || v.Shard == nil {
		t.Fatalf("distributed submit view %+v", v)
	}
	id := v.ID

	// Missing worker name → 400.
	if rec := post("/sweeps/"+id+"/lease", LeaseRequest{}); rec.Code != http.StatusBadRequest {
		t.Fatalf("anonymous lease → %d", rec.Code)
	}
	// Unknown sweep → 404.
	if rec := post("/sweeps/nope/lease", LeaseRequest{Worker: "w"}); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown sweep lease → %d", rec.Code)
	}

	rec = post("/sweeps/"+id+"/lease", LeaseRequest{Worker: "w1", Max: 2})
	if rec.Code != http.StatusOK {
		t.Fatalf("lease → %d: %s", rec.Code, rec.Body.String())
	}
	var lr LeaseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.Leases) != 2 || lr.Request == nil {
		t.Fatalf("lease response %+v", lr)
	}

	// Heartbeat keeps the leases alive.
	rec = post("/sweeps/"+id+"/heartbeat", HeartbeatRequest{Worker: "w1"})
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"extended":2`) {
		t.Fatalf("heartbeat → %d: %s", rec.Code, rec.Body.String())
	}

	// A cell from a larger grid version → 422, cleanly, no panic.
	alien := oracle.Cells[0]
	alien.Index = 99
	rec = post("/sweeps/"+id+"/cells", CompleteRequest{Worker: "w1", LeaseID: lr.Leases[0].LeaseID, Cell: alien})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("out-of-range cell → %d: %s", rec.Code, rec.Body.String())
	}

	for i, l := range lr.Leases {
		rec = post("/sweeps/"+id+"/cells", CompleteRequest{Worker: "w1", LeaseID: l.LeaseID, Cell: oracle.Cells[l.Index]})
		if rec.Code != http.StatusOK {
			t.Fatalf("complete %d → %d: %s", i, rec.Code, rec.Body.String())
		}
	}

	// A mismatched duplicate → 409 (version-skew assertion).
	bad := oracle.Cells[0]
	bad.Est.Point += 1
	rec = post("/sweeps/"+id+"/cells", CompleteRequest{Worker: "w1", Cell: bad})
	if rec.Code != http.StatusConflict {
		t.Fatalf("mismatched duplicate → %d: %s", rec.Code, rec.Body.String())
	}

	// The checkpoint endpoint serves the bit-identical single-node bytes.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/sweeps/"+id+"/checkpoint", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET checkpoint → %d", rec.Code)
	}
	if !bytes.Equal(rec.Body.Bytes(), encodeCheckpoint(t, oracle)) {
		t.Fatalf("checkpoint over HTTP differs from single-node oracle:\n%s", rec.Body.String())
	}

	// Lease protocol against a local (pool-run) sweep → 409.
	local := req
	local.Distributed = false
	local.Seed = 6 // avoid the cache-hit fold, which settles without a board
	rec = post("/sweeps", local)
	var v2 View
	if err := json.Unmarshal(rec.Body.Bytes(), &v2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		job, ok := m.Get(v2.ID)
		if !ok {
			t.Fatal("local sweep vanished")
		}
		if job.State().Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("local sweep never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A lease poll against the finished local sweep degrades to a "done,
	// stop" response rather than an error; the other protocol calls reject
	// the non-distributed job outright with 409.
	rec = post("/sweeps/"+v2.ID+"/lease", LeaseRequest{Worker: "w"})
	var lr2 LeaseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &lr2); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || !lr2.State.Terminal() || len(lr2.Leases) != 0 {
		t.Fatalf("lease on finished local sweep → %d: %s", rec.Code, rec.Body.String())
	}
	if rec := post("/sweeps/"+v2.ID+"/heartbeat", HeartbeatRequest{Worker: "w"}); rec.Code != http.StatusConflict {
		t.Fatalf("heartbeat on local sweep → %d: %s", rec.Code, rec.Body.String())
	}
	if rec := post("/sweeps/"+v2.ID+"/cells", CompleteRequest{Worker: "w", Cell: oracle.Cells[0]}); rec.Code != http.StatusConflict {
		t.Fatalf("cells on local sweep → %d: %s", rec.Code, rec.Body.String())
	}
}
