package sim

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
	"repro/internal/stats"
)

// Metrics is the named measurements one trial produces.
type Metrics map[string]float64

// Trial runs one randomized experiment instance. It must use only the
// provided stream for randomness and may be called concurrently with other
// trials.
type Trial func(trial int, r *rng.Stream) Metrics

// Runner configures a Monte-Carlo run. The zero value runs zero trials;
// set Trials (and usually Seed).
type Runner struct {
	// Trials is the number of independent repetitions.
	Trials int
	// Seed is the base seed; trial i uses rng.NewStream(Seed, i).
	Seed uint64
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// OnTrial, when non-nil, is invoked once after each completed trial.
	// It is called from worker goroutines and must be safe for concurrent
	// use; it must not affect the trial's randomness.
	OnTrial func()
}

// Run executes the trial function and aggregates its metrics. The drivers
// call RunContext; BenchmarkSweepFixedBaseline and the tests call Run.
func (c Runner) Run(trial Trial) *Results {
	res, _ := c.RunContext(context.Background(), trial)
	return res
}

// RunContext is Run under a context: workers stop claiming new trials once
// ctx is cancelled (trials already started run to completion) and the
// context's error is returned. The Results aggregate completed trials only,
// in trial order, so a run that finishes uncancelled is bit-identical to
// Run for any worker count or cancellation plumbing.
//
// A panic inside a trial is caught on its worker goroutine, aborts the
// remaining trials, and is re-raised on the calling goroutine — so callers
// wrapping RunContext in recover really do contain trial bugs instead of
// losing the process.
func (c Runner) RunContext(ctx context.Context, trial Trial) (*Results, error) {
	if c.Trials < 0 {
		panic("sim: negative trial count")
	}
	return c.runFromWorkers(ctx, 0, c.Trials, func() (Trial, func()) { return trial, nil })
}

// ScalarTrial is a single-valued trial body: one observation per trial.
type ScalarTrial func(trial int, r *rng.Stream) float64

// ScalarsFromContext runs the count trials with global indices start, …,
// start+count−1 (Runner.Trials is ignored), each under its canonical
// stream rng.NewStream(Seed, index), with RunContext's cancellation and
// panic contract, returning the completed observations in trial order. So
// (0, k) followed by (k, m) returns exactly the observations of (0, k+m):
// the allocation-lean, batch-resumable core the adaptive sweep engine
// (internal/sweep) extends trial sequences through.
func (c Runner) ScalarsFromContext(ctx context.Context, start, count int, trial ScalarTrial) ([]float64, error) {
	return c.scalarsFromWorkers(ctx, start, count, func() (ScalarTrial, func()) { return trial, nil })
}

// runLoop is the claim-execute core every run variant shares: workers
// claim trial offsets 0 … count−1 in atomic order; makeRun is invoked once
// per worker goroutine — per-worker reusable state, such as BatchRunner's
// substrate + time-edge index, lives in the returned closure — and the
// body executes one offset, storing its own result. Because per-trial
// randomness depends only on the global trial index, worker count and
// claim order never change any number. A panic in a body aborts the
// remaining trials and is re-raised on the calling goroutine; the returned
// flags report which offsets completed.
func (c Runner) runLoop(ctx context.Context, count int, makeRun func() (run func(offset int), done func())) []bool {
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > count {
		workers = count
	}
	abort, cancelAbort := context.WithCancel(ctx)
	defer cancelAbort()
	completed := make([]bool, count)
	var panicOnce sync.Once
	var panicked any
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run, done := makeRun()
			if done != nil {
				defer done()
			}
			for abort.Err() == nil {
				i := int(atomic.AddInt64(&next, 1) - 1)
				if i >= count {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicOnce.Do(func() { panicked = r })
							cancelAbort()
						}
					}()
					run(i)
					completed[i] = true
				}()
				if completed[i] && c.OnTrial != nil {
					c.OnTrial()
				}
			}
		}()
	}
	wg.Wait()
	countRun(next, count, completed)
	if panicked != nil {
		panic(panicked)
	}
	return completed
}

// runFromWorkers runs the count trials with global indices start, …,
// start+count−1 and aggregates their metrics, with a per-worker trial
// factory; the optional done hook returned alongside the trial runs when
// its worker goroutine exits (BatchRunner releases worker state back to
// its free list there).
func (c Runner) runFromWorkers(ctx context.Context, start, count int, makeTrial func() (Trial, func())) (*Results, error) {
	if start < 0 || count < 0 {
		panic("sim: negative trial range")
	}
	perTrial := make([]Metrics, count)
	completed := c.runLoop(ctx, count, func() (func(int), func()) {
		trial, done := makeTrial()
		return func(i int) {
			g := start + i
			perTrial[i] = trial(g, rng.NewStream(c.Seed, uint64(g)))
		}, done
	})

	// Aggregate after all workers finish, feeding each Sample in trial
	// order, so results are bit-exact regardless of scheduling.
	trials := 0
	for _, done := range completed {
		if done {
			trials++
		}
	}
	res := &Results{byName: make(map[string]*stats.Sample), trials: trials}
	for i, m := range perTrial {
		if !completed[i] {
			continue
		}
		for name := range m {
			if res.byName[name] == nil {
				res.byName[name] = &stats.Sample{}
			}
		}
	}
	for name, s := range res.byName {
		for i, m := range perTrial {
			if !completed[i] {
				continue
			}
			if v, ok := m[name]; ok {
				s.Add(v)
			}
		}
	}
	return res, ctx.Err()
}

// scalarsFromWorkers is ScalarsFromContext with a per-worker trial
// factory, with runFromWorkers's done-hook contract.
func (c Runner) scalarsFromWorkers(ctx context.Context, start, count int, makeTrial func() (ScalarTrial, func())) ([]float64, error) {
	if start < 0 || count < 0 {
		panic("sim: negative trial range")
	}
	vals := make([]float64, count)
	completed := c.runLoop(ctx, count, func() (func(int), func()) {
		trial, done := makeTrial()
		return func(i int) {
			g := start + i
			vals[i] = trial(g, rng.NewStream(c.Seed, uint64(g)))
		}, done
	})
	// Compact to completed trials in trial order (in place: the write
	// index never passes the read index).
	out := vals[:0]
	for i, done := range completed {
		if done {
			out = append(out, vals[i])
		}
	}
	return out, ctx.Err()
}

// Results aggregates per-metric samples from a run.
type Results struct {
	byName map[string]*stats.Sample
	trials int
}

// Sample returns the sample for a metric; missing metrics yield an empty
// sample so callers can chain accessors safely.
func (r *Results) Sample(name string) *stats.Sample {
	if s, ok := r.byName[name]; ok {
		return s
	}
	return &stats.Sample{}
}

// Names returns the metric names in sorted order. The differential tests
// of package sim_test compare Results metric by metric through it.
func (r *Results) Names() []string {
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// Trials returns the number of trials that ran (read by the sim and
// service tests).
func (r *Results) Trials() int { return r.trials }

// Rate returns the fraction of trials in which the named indicator metric
// (0 or 1 valued) was 1, assuming every trial reported it; metrics reported
// by only some trials are averaged over the reporting trials.
func (r *Results) Rate(name string) float64 { return r.Sample(name).Mean() }
