package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// State is a job's lifecycle position. Transitions are monotone:
// queued → running → {done, failed, cancelled}, with queued → cancelled
// and queued/running → done (from cache at submit) as shortcuts.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further transition can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one submitted computation — an experiment run or a parameter
// sweep — tracked by the Manager. Sweep jobs carry sweepReq and report
// per-cell progress alongside per-trial progress.
type Job struct {
	id  string
	req Request

	sweepReq   *SweepRequest // nil for experiment jobs
	cells      atomic.Int64  // completed sweep cells, updated live
	cellsTotal int

	// board is the cell lease table of a distributed sweep (nil for local
	// sweeps and experiment jobs); nowFn is the manager's clock, captured
	// so View can snapshot lease state without reaching back into the
	// manager.
	board *shard.Board
	nowFn func() time.Time

	// span is the sweep's root trace span for distributed sweeps (zero —
	// a no-op — otherwise), opened at submit and ended at settle;
	// traceparent is its serialized context, handed to workers in every
	// LeaseResponse so their per-cell spans stitch under it.
	span        obs.Span
	traceparent string

	trials atomic.Int64 // completed Monte-Carlo trials, updated live
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     State
	err       string
	fromCache bool
	payload   *Payload
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// ID returns the job's manager-assigned identifier.
func (j *Job) ID() string { return j.id }

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Payload returns the result payload once the job is done; the bool is
// false in every other state.
func (j *Job) Payload() (*Payload, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return j.payload, true
}

// View is the JSON rendering of a job's status. Sweep jobs additionally
// carry the sweep request and live per-cell progress (cells_done out of
// cells_total), the streaming-progress surface GET /sweeps/{id} polls.
type View struct {
	ID         string             `json:"id"`
	Experiment string             `json:"experiment"`
	Seed       uint64             `json:"seed"`
	Quick      bool               `json:"quick"`
	Model      string             `json:"model,omitempty"`
	MP         map[string]float64 `json:"mp,omitempty"`
	// CellsDone is a pointer so a sweep that has not finished its first
	// cell still serializes "cells_done":0 alongside cells_total, while
	// experiment jobs omit both fields entirely.
	Sweep      *SweepRequest `json:"sweep,omitempty"`
	CellsDone  *int64        `json:"cells_done,omitempty"`
	CellsTotal int           `json:"cells_total,omitempty"`
	// Shard reports lease-table state for distributed sweeps: cells
	// pending/leased/done, live workers, straggler re-leases, duplicates.
	Shard       *shard.Status `json:"shard,omitempty"`
	State       State         `json:"state"`
	Trials      int64         `json:"trials_completed"`
	FromCache   bool          `json:"from_cache"`
	Error       string        `json:"error,omitempty"`
	SubmittedAt time.Time     `json:"submitted_at"`
	StartedAt   *time.Time    `json:"started_at,omitempty"`
	FinishedAt  *time.Time    `json:"finished_at,omitempty"`
}

// IsSweep reports whether the job runs a parameter sweep.
func (j *Job) IsSweep() bool { return j.sweepReq != nil }

// View snapshots the job for API responses.
func (j *Job) View() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:          j.id,
		Experiment:  j.req.Experiment,
		Seed:        j.req.Seed,
		Quick:       j.req.Quick,
		Model:       j.req.Model,
		MP:          j.req.MP,
		State:       j.state,
		Trials:      j.trials.Load(),
		FromCache:   j.fromCache,
		Error:       j.err,
		SubmittedAt: j.submitted,
	}
	if j.sweepReq != nil {
		v.Sweep = j.sweepReq
		cells := j.cells.Load()
		v.CellsDone = &cells
		v.CellsTotal = j.cellsTotal
	}
	if j.board != nil {
		st := j.board.Status(j.nowFn())
		v.Shard = &st
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}
