package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/stats"
)

// ErrShuttingDown is returned by Submit after Close; match with errors.Is.
var ErrShuttingDown = errors.New("service is shutting down")

// Options configures a Manager. The zero value gets sensible defaults.
type Options struct {
	// Workers is the number of concurrent jobs; 0 means
	// max(1, GOMAXPROCS/2) — each driver already parallelizes its trials
	// internally, so a modest job-level pool keeps the machine busy
	// without oversubscribing it.
	Workers int
	// QueueDepth bounds the submit queue; 0 means 256. Submitting to a
	// full queue fails fast instead of blocking the caller.
	QueueDepth int
	// CacheSize bounds the LRU result cache; 0 means 256.
	CacheSize int
	// MaxHistory bounds how many terminal (done/failed/cancelled) jobs
	// stay queryable; 0 means 1024. Submitting beyond it evicts the
	// oldest terminal job so a long-running service cannot accumulate
	// payloads without bound. Queued and running jobs are never evicted.
	MaxHistory int
	// LeaseTTL bounds how long a distributed-sweep worker may hold a cell
	// lease without heartbeating before the cell is re-leased; 0 means
	// DefaultLeaseTTL.
	LeaseTTL time.Duration
	// CheckpointDir, when non-empty, makes the coordinator persist every
	// distributed sweep's checkpoint to <dir>/<jobid>.ckpt.json after each
	// accepted cell, via the synced atomic writer shared with cmd/sweep.
	CheckpointDir string
	// Lookup resolves experiment ids; nil means experiments.ByID. Tests
	// inject stub registries here.
	Lookup func(id string) (experiments.Experiment, bool)
	// List enumerates the registry for GET /experiments; nil means
	// experiments.All. Inject it together with Lookup so the listing and
	// the submit path agree on what exists.
	List func() []experiments.Experiment
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0) / 2
		if o.Workers < 1 {
			o.Workers = 1
		}
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 256
	}
	if o.MaxHistory <= 0 {
		o.MaxHistory = 1024
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = DefaultLeaseTTL
	}
	if o.Lookup == nil {
		o.Lookup = experiments.ByID
	}
	if o.List == nil {
		o.List = experiments.All
	}
	return o
}

// Manager owns the job queue, the worker pool and the result cache. Create
// with New, release with Close.
type Manager struct {
	opts  Options
	cache *Cache
	queue chan *Job
	now   func() time.Time // injectable for timestamp-dependent tests

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu     sync.Mutex
	closed bool
	nextID int
	jobs   map[string]*Job
	order  []string // submission order, for listing

	submitted uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	cancelled atomic.Uint64
	fromCache uint64
}

// New starts a Manager and its worker pool.
func New(opts Options) *Manager {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:       opts,
		cache:      NewCache(opts.CacheSize),
		queue:      make(chan *Job, opts.QueueDepth),
		now:        time.Now,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
	}
	for w := 0; w < opts.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Close cancels in-flight jobs, stops the workers and waits for them.
// Submit fails after Close.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()
	m.baseCancel()
	m.wg.Wait()
}

// Submit validates and enqueues a request. Requests whose canonical key is
// cached complete immediately from cache without touching the queue. The
// returned job is already registered and observable via Get.
func (m *Manager) Submit(req Request) (*Job, error) {
	req = req.Canonical()
	if _, ok := m.opts.Lookup(req.Experiment); !ok {
		return nil, fmt.Errorf("unknown experiment %q", req.Experiment)
	}
	if err := req.validateModel(); err != nil {
		return nil, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrShuttingDown
	}
	m.nextID++
	job := &Job{
		id:        fmt.Sprintf("j%d", m.nextID),
		req:       req,
		state:     StateQueued,
		submitted: m.now(),
	}

	if p, ok := m.cache.Get(req.Key()); ok {
		job.state = StateDone
		job.fromCache = true
		job.payload = p
		job.trials.Store(int64(p.Meta.Trials))
		job.finished = m.now()
		m.fromCache++
		m.register(job)
		return job, nil
	}

	if err := m.enqueue(job); err != nil {
		return nil, err
	}
	return job, nil
}

// enqueue gives job its context, puts it on the submit queue and registers
// it; callers hold m.mu. The queue-depth gauge rises before the send, so
// the worker's decrement can never run first.
func (m *Manager) enqueue(job *Job) error {
	job.ctx, job.cancel = context.WithCancel(m.baseCtx)
	obsQueueDepth.Add(1)
	select {
	case m.queue <- job:
	default:
		obsQueueDepth.Add(-1)
		job.cancel()
		return fmt.Errorf("job queue full (%d pending)", cap(m.queue))
	}
	m.register(job)
	return nil
}

// register records the job and evicts the oldest terminal job beyond the
// history bound; callers hold m.mu.
func (m *Manager) register(job *Job) {
	m.jobs[job.id] = job
	m.order = append(m.order, job.id)
	m.submitted++
	obsJobsSubmitted.Inc()
	if job.fromCache {
		obsJobsFromCache.Inc()
	}
	if len(m.order) <= m.opts.MaxHistory {
		return
	}
	for i, id := range m.order {
		if m.jobs[id].State().Terminal() {
			delete(m.jobs, id)
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
	// Everything is still in flight; nothing is evictable, the bound is
	// exceeded transiently until jobs settle.
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns all tracked jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel stops a queued or running job. Cancelling a terminal job is an
// error; the job's state tells the caller what it settled as.
func (m *Manager) Cancel(id string) error {
	job, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("no such job %q", id)
	}
	job.mu.Lock()
	if job.state.Terminal() {
		state := job.state
		job.mu.Unlock()
		return fmt.Errorf("job %s already %s", id, state)
	}
	if job.state == StateQueued {
		// The worker that eventually pops it will see the cancelled state
		// and skip; settle it now so the API reflects the cancel at once.
		job.state = StateCancelled
		job.finished = m.now()
		job.mu.Unlock()
		m.cancelled.Add(1)
		countSettled(StateCancelled)
	} else {
		job.mu.Unlock()
	}
	if job.cancel != nil {
		job.cancel()
	}
	if job.board != nil {
		// Distributed sweeps have no pool worker watching a context: close
		// the lease table so workers get turned away, and settle directly.
		job.board.Close()
		m.settle(job, StateCancelled, nil, "")
	}
	return nil
}

// worker drains the queue until Close.
func (m *Manager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		obsQueueDepth.Add(-1)
		m.runJob(job)
	}
}

// runJob executes one job, translating panics into failures and context
// cancellation into the cancelled state.
func (m *Manager) runJob(job *Job) {
	job.mu.Lock()
	if job.state != StateQueued {
		job.mu.Unlock()
		return
	}
	job.state = StateRunning
	job.started = m.now()
	job.mu.Unlock()

	obsInFlight.Add(1)
	defer obsInFlight.Add(-1)

	if job.sweepReq != nil {
		span := obs.StartSpan("service.sweep")
		defer span.End()
		m.runSweepJob(job)
		return
	}
	span := obs.StartSpan("service.job")
	defer span.End()

	e, ok := m.opts.Lookup(job.req.Experiment)
	if !ok {
		m.settle(job, StateFailed, nil, fmt.Sprintf("experiment %q vanished from registry", job.req.Experiment))
		return
	}

	ctx := job.ctx
	if ctx == nil {
		ctx = m.baseCtx
	}
	if job.cancel != nil {
		defer job.cancel()
	}

	payload, runErr := runDriver(ctx, e, job)
	switch {
	case runErr == nil:
		m.cache.Put(job.req.Key(), payload)
		m.settle(job, StateDone, payload, "")
	case ctx.Err() != nil:
		m.settle(job, StateCancelled, nil, "")
	default:
		m.settle(job, StateFailed, nil, runErr.Error())
	}
}

// runDriver runs the experiment under ctx, converting driver panics into
// errors so one bad request cannot take down the worker pool.
func runDriver(ctx context.Context, e experiments.Experiment, job *Job) (p *Payload, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("driver panic: %v", r)
		}
	}()
	cfg := experiments.Config{
		Seed:     job.req.Seed,
		Quick:    job.req.Quick,
		Model:    job.req.Model,
		MP:       job.req.MP,
		Progress: func() { job.trials.Add(1) },
	}
	res, meta, err := experiments.Run(ctx, e, cfg)
	if err != nil {
		return nil, err
	}
	return NewPayload(meta, res), nil
}

// settle finalizes a job's state exactly once and bumps the counters.
func (m *Manager) settle(job *Job, state State, payload *Payload, errMsg string) {
	job.mu.Lock()
	if job.state.Terminal() {
		job.mu.Unlock()
		return
	}
	job.state = state
	job.payload = payload
	job.err = errMsg
	job.finished = m.now()
	job.mu.Unlock()
	// Close the sweep's root trace span (a no-op for jobs without one).
	// settle is the single terminal point, so the span ends exactly once.
	job.span.SetAttr("state", string(state))
	if errMsg != "" {
		job.span.SetError(errors.New(errMsg))
	}
	job.span.End()
	countSettled(state)
	switch state {
	case StateDone:
		m.completed.Add(1)
	case StateFailed:
		m.failed.Add(1)
	case StateCancelled:
		m.cancelled.Add(1)
	}
}

// Stats is the service's metrics snapshot.
type Stats struct {
	Workers       int     `json:"workers"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	InFlight      int64   `json:"in_flight"`
	JobsSubmitted uint64  `json:"jobs_submitted"`
	JobsCompleted uint64  `json:"jobs_completed"`
	JobsFailed    uint64  `json:"jobs_failed"`
	JobsCancelled uint64  `json:"jobs_cancelled"`
	JobsFromCache uint64  `json:"jobs_from_cache"`
	CacheSize     int     `json:"cache_size"`
	CacheCapacity int     `json:"cache_capacity"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	// DurationP50Ms, DurationP95Ms and DurationP99Ms are wall-clock
	// run-duration percentiles (milliseconds) over the terminal jobs still
	// in history that actually ran — cache hits and cancelled-while-queued
	// jobs never started, so they are excluded. Sweep-sized jobs run orders
	// of magnitude longer than cached lookups; the tail percentiles are
	// what make them observable. 0 when no job has finished yet.
	DurationP50Ms float64 `json:"job_duration_p50_ms"`
	DurationP95Ms float64 `json:"job_duration_p95_ms"`
	DurationP99Ms float64 `json:"job_duration_p99_ms"`
}

// Stats returns the current counters. InFlight counts tracked jobs that
// have not reached a terminal state (cancelled-while-queued jobs settle
// immediately, so they never inflate it); the cache hit rate is
// hits/(hits+misses) over submit-path lookups.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	submitted, fromCache := m.submitted, m.fromCache
	queueDepth := len(m.queue)
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	var inFlight int64
	for _, j := range jobs {
		if !j.State().Terminal() {
			inFlight++
		}
	}
	hits, misses := m.cache.Stats()
	s := Stats{
		Workers:       m.opts.Workers,
		QueueDepth:    queueDepth,
		QueueCapacity: m.opts.QueueDepth,
		InFlight:      inFlight,
		JobsSubmitted: submitted,
		JobsCompleted: m.completed.Load(),
		JobsFailed:    m.failed.Load(),
		JobsCancelled: m.cancelled.Load(),
		JobsFromCache: fromCache,
		CacheSize:     m.cache.Len(),
		CacheCapacity: m.cache.Capacity(),
		CacheHits:     hits,
		CacheMisses:   misses,
	}
	if total := hits + misses; total > 0 {
		s.CacheHitRate = float64(hits) / float64(total)
	}
	s.DurationP50Ms, s.DurationP95Ms, s.DurationP99Ms = durationPercentiles(jobDurations(jobs))
	return s
}

// durationPercentiles returns the (p50, p95, p99) of the durations in
// milliseconds, 0s when empty.
func durationPercentiles(ds []time.Duration) (p50, p95, p99 float64) {
	if len(ds) == 0 {
		return 0, 0, 0
	}
	var sample stats.Sample
	for _, d := range ds {
		sample.Add(float64(d) / float64(time.Millisecond))
	}
	return sample.Quantile(0.50), sample.Quantile(0.95), sample.Quantile(0.99)
}
