package service

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/sweep"
	"repro/internal/table"
)

// SweepRequest identifies one adaptive parameter-grid sweep (see
// internal/sweep and experiments.SweepTarget). Like Request it is the
// cache-key domain: two requests with equal canonical forms produce
// bit-identical results, so sweeps fold into the same LRU result cache as
// experiments under a "SWEEP|…" key.
type SweepRequest struct {
	// Model names an availability model (GET /models).
	Model string `json:"model"`
	// MP holds base model-parameter overrides; knob-named grid axes
	// override them per cell.
	MP map[string]float64 `json:"mp,omitempty"`
	// Graph is the substrate family; empty means dclique.
	Graph string `json:"graph,omitempty"`
	// Lifetime fixes the label range when no "lifetime" axis exists;
	// 0 means lifetime = n.
	Lifetime int `json:"lifetime,omitempty"`
	// Metric names the response (experiments.SweepMetrics); empty means
	// treach.
	Metric string `json:"metric,omitempty"`
	// Seed is the sweep seed; cell c runs under sweep.CellSeed(Seed, c).
	Seed uint64 `json:"seed"`
	// Grid enumerates the cells: axes named "n", "lifetime", or a model
	// knob.
	Grid []sweep.Axis `json:"grid"`
	// Precision is the per-cell stopping rule; the zero value selects the
	// defaults (95% confidence, ±0.05, ≤4096 trials).
	Precision sweep.Precision `json:"precision"`
	// Distributed makes the sweep a coordinator job: instead of running on
	// the local pool, its cells are leased to remote workers
	// (cmd/sweepworker) over POST /sweeps/{id}/lease. Determinism makes
	// the result — and therefore the cache key — identical either way, so
	// Distributed is deliberately absent from Key.
	Distributed bool `json:"distributed,omitempty"`
}

// Canonical returns the request with names trimmed, lower-cased and
// defaults filled, so equivalent requests share a cache entry.
func (r SweepRequest) Canonical() SweepRequest {
	r.Model = strings.ToLower(strings.TrimSpace(r.Model))
	r.Graph = strings.ToLower(strings.TrimSpace(r.Graph))
	if r.Graph == "" {
		r.Graph = "dclique"
	}
	r.Metric = strings.ToLower(strings.TrimSpace(r.Metric))
	if r.Metric == "" {
		r.Metric = "treach"
	}
	if len(r.MP) == 0 {
		r.MP = nil
	}
	return r
}

// Target is the experiments-side view of the request — exported because
// cmd/sweepworker rebuilds the exact per-cell execution a local sweep
// would run from the request the coordinator hands it.
func (r SweepRequest) Target() experiments.SweepTarget {
	return experiments.SweepTarget{
		Model: r.Model, MP: r.MP, Graph: r.Graph,
		Lifetime: r.Lifetime, Metric: r.Metric,
	}
}

// Spec is the sweep engine configuration the request denotes. Workers
// recompute Spec().SpecKey() locally and refuse leases whose fingerprint
// differs — the version-skew guard.
func (r SweepRequest) Spec() sweep.Sweep {
	return sweep.Sweep{
		Grid: sweep.Grid{Axes: r.Grid},
		Kind: r.Target().Kind(),
		Prec: r.Precision,
		Seed: r.Seed,
	}
}

// Key is the canonical cache key: the target fields plus the sweep
// engine's own spec fingerprint (grid, kind, precision, seed — never
// Workers), prefixed so sweep and experiment entries cannot collide.
func (r SweepRequest) Key() string {
	c := r.Canonical()
	key := fmt.Sprintf("SWEEP|model=%s|graph=%s|lifetime=%d|metric=%s",
		c.Model, c.Graph, c.Lifetime, c.Metric)
	return key + mpKey(c.MP) + "|" + c.Spec().SpecKey()
}

// Server-side resource policy for POST /sweeps: one request may not
// monopolize a pool worker with an effectively unbounded cell count,
// per-cell trial budget, or substrate size. Local cmd/sweep runs are the
// operator's own machine and are capped only by sweep.MaxGridCells.
const (
	maxSweepCells     = 4096
	maxSweepTrials    = 100000  // per cell
	maxSweepSubstrate = 1 << 14 // largest n / lifetime axis value
)

// validate rejects malformed sweeps at submit, keeping junk out of the
// queue and the cache key space (the Request.validateModel contract).
func (r SweepRequest) validate() error {
	if err := r.Precision.Validate(); err != nil {
		return err
	}
	if len(r.Grid) == 0 {
		return fmt.Errorf("sweep needs at least one grid axis")
	}
	grid := sweep.Grid{Axes: r.Grid}
	if err := r.Target().Validate(grid); err != nil {
		return err
	}
	if size := grid.Size(); size > maxSweepCells {
		return fmt.Errorf("sweep grid has %d cells, server cap is %d", size, maxSweepCells)
	}
	if r.Precision.MaxTrials > maxSweepTrials {
		return fmt.Errorf("max_trials %d above server cap %d", r.Precision.MaxTrials, maxSweepTrials)
	}
	if r.Lifetime > maxSweepSubstrate {
		return fmt.Errorf("lifetime %d above server cap %d", r.Lifetime, maxSweepSubstrate)
	}
	for _, a := range r.Grid {
		if a.Name != "n" && a.Name != "lifetime" {
			continue
		}
		for _, v := range a.Values {
			if v > maxSweepSubstrate {
				return fmt.Errorf("axis %q value %g above server cap %d", a.Name, v, maxSweepSubstrate)
			}
		}
	}
	return nil
}

// SubmitSweep validates and enqueues a sweep. Like Submit, requests whose
// canonical key is cached complete immediately without touching the queue.
func (m *Manager) SubmitSweep(req SweepRequest) (*Job, error) {
	req = req.Canonical()
	if err := req.validate(); err != nil {
		return nil, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrShuttingDown
	}
	m.nextID++
	job := &Job{
		id:         fmt.Sprintf("j%d", m.nextID),
		req:        Request{Experiment: "SWEEP", Seed: req.Seed},
		sweepReq:   &req,
		cellsTotal: sweep.Grid{Axes: req.Grid}.Size(),
		state:      StateQueued,
		submitted:  m.now(),
	}

	if p, ok := m.cache.Get(req.Key()); ok {
		job.state = StateDone
		job.fromCache = true
		job.payload = p
		job.trials.Store(int64(p.Meta.Trials))
		job.cells.Store(int64(job.cellsTotal))
		job.finished = m.now()
		m.fromCache++
		m.register(job)
		return job, nil
	}

	if req.Distributed {
		// Coordinator mode: no pool worker runs this job. It goes straight
		// to running with an open lease table; remote workers pull cells
		// and the job settles when the last result lands (CompleteCell) or
		// on Cancel. The root span opened here is the sweep's whole trace:
		// its context rides every LeaseResponse, so worker-side cell spans
		// land under it and cmd/traceview can reassemble the distributed
		// timeline.
		job.state = StateRunning
		job.started = m.now()
		job.board = shard.New(req.Spec().SpecKey(), job.cellsTotal, m.opts.LeaseTTL)
		job.nowFn = m.now
		span := obs.StartSpan("sweep.coordinate")
		span.SetAttr("sweep", job.id)
		span.SetAttrInt("cells", int64(job.cellsTotal))
		job.span = span
		job.traceparent = span.Context().Traceparent()
		m.register(job)
		return job, nil
	}

	if err := m.enqueue(job); err != nil {
		return nil, err
	}
	return job, nil
}

// runSweepJob executes a sweep job on a pool worker; the job is already in
// StateRunning. Panics become failures, cancellation becomes the
// cancelled state — the same settle semantics as experiment jobs.
func (m *Manager) runSweepJob(job *Job) {
	ctx := job.ctx
	if ctx == nil {
		ctx = m.baseCtx
	}
	if job.cancel != nil {
		defer job.cancel()
	}
	payload, runErr := runSweep(ctx, job)
	switch {
	case runErr == nil:
		m.cache.Put(job.sweepReq.Key(), payload)
		m.settle(job, StateDone, payload, "")
	case ctx.Err() != nil:
		m.settle(job, StateCancelled, nil, "")
	default:
		m.settle(job, StateFailed, nil, runErr.Error())
	}
}

// runSweep runs the sweep under ctx, converting panics into errors.
func runSweep(ctx context.Context, job *Job) (p *Payload, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("sweep panic: %v", r)
		}
	}()
	req := job.sweepReq
	// The batched execution path: per-worker substrate + index, relabeled
	// in place per trial. Source factories fall back to the per-trial
	// rebuild for randomized substrates, and either path is bit-identical
	// per cell, so cached results never depend on which one ran.
	src, err := req.Target().Source()
	if err != nil {
		return nil, err
	}
	s := req.Spec()
	s.OnTrial = func() { job.trials.Add(1) }
	s.OnCell = func(sweep.Cell) { job.cells.Add(1) }
	s.Source = src
	cp, err := s.Run(ctx, nil, nil)
	if err != nil {
		return nil, err
	}
	return sweepPayload(*req, cp), nil
}

// sweepPayload renders a completed sweep as the same Payload shape
// experiment jobs produce, so the cache, the encoders and the result
// endpoint serve both uniformly.
func sweepPayload(req SweepRequest, cp *sweep.Checkpoint) *Payload {
	tb := sweep.CellTable(
		fmt.Sprintf("Sweep: %s of %s on %s", req.Metric, req.Model, req.Graph),
		sweep.Grid{Axes: req.Grid}, cp.Cells)
	trials := 0
	for _, cell := range cp.Cells {
		trials += cell.Est.N
	}
	tb.AddNote("spec %s", cp.Spec)
	meta := experiments.Meta{
		ID:     "SWEEP",
		Title:  fmt.Sprintf("adaptive sweep: %s of %s on %s", req.Metric, req.Model, req.Graph),
		Anchor: "internal/sweep (CI-driven Monte Carlo)",
		Seed:   req.Seed,
		Trials: trials,
	}
	return NewPayload(meta, experiments.Result{Tables: []*table.Table{tb}})
}

// jobDurations collects wall-clock run durations of terminal jobs that
// actually started, in submission order.
func jobDurations(jobs []*Job) []time.Duration {
	out := make([]time.Duration, 0, len(jobs))
	for _, j := range jobs {
		j.mu.Lock()
		if j.state.Terminal() && !j.started.IsZero() && !j.finished.IsZero() {
			out = append(out, j.finished.Sub(j.started))
		}
		j.mu.Unlock()
	}
	return out
}
