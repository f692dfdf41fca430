package sim

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/temporal"
)

// Metrics is the named measurements one trial produces.
type Metrics map[string]float64

// Draw labels the calling worker's network with the draw starting at r's
// current position — the network avail.Network(Model, Substrate, r) would
// build, consuming r identically — and returns it. The network is owned by
// the worker and overwritten by its next draw: a trial must not retain it
// (or slices obtained from it, e.g. EdgeLabels) beyond the call. On a
// runner without a Model, Draw returns nil and consumes nothing.
type Draw func(r *rng.Stream) *temporal.Network

// Trial runs one randomized experiment instance. It must use only the
// provided stream for randomness and may be called concurrently with other
// trials. A trial that measures a labeled network draws it through draw at
// the point of its stream where it needs one — first thing for most, after
// other work for some (E10's phone-call walks).
type Trial func(trial int, r *rng.Stream, draw Draw) Metrics

// NetObservable is the single-valued trial body of ObserveFrom: net is the
// trial's network, already drawn (nil on a runner without a Model), and r
// the trial's stream advanced past that draw. Draw's no-retention rule
// applies to net.
type NetObservable func(trial int, net *temporal.Network, r *rng.Stream) float64

// Run executes the count trials with global indices start, …, start+count−1,
// trial g under the stream rng.NewStream(Seed, g), and aggregates their
// metrics in trial order, so a run is bit-identical for any worker count
// and (0, k) followed by (k, m) gives exactly the trials of (0, k+m).
//
// Workers stop claiming new trials once ctx is cancelled (trials already
// started run to completion) and the context's error is returned; the
// Results then aggregate the completed trials only. A panic inside a trial
// is caught on its worker goroutine, aborts the remaining trials, and is
// re-raised on the calling goroutine, so a caller's recover contains trial
// bugs instead of losing the process. A negative start or count panics.
func (b *BatchRunner) Run(ctx context.Context, start, count int, trial Trial) (*Results, error) {
	perTrial, completed := runTrials(ctx, b, start, count, trial)

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

// ObserveFrom is Run's scalar form, with Run's determinism, cancellation
// and panic contract: each trial's network is drawn before obs runs, and
// the completed observations come back in trial order with no Metrics map
// per trial — the executor the adaptive sweep engine's sources wrap.
func (b *BatchRunner) ObserveFrom(ctx context.Context, start, count int, obs NetObservable) ([]float64, error) {
	vals, completed := runTrials(ctx, b, start, count, func(g int, r *rng.Stream, draw Draw) float64 {
		return obs(g, draw(r), r)
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

// runTrials runs body for the trials with global indices start, …,
// start+count−1 on b's worker pool, trial g under rng.NewStream(Seed, g),
// and returns each offset's result with the flags of the offsets that
// completed.
func runTrials[T any](ctx context.Context, b *BatchRunner, start, count int, body func(g int, r *rng.Stream, draw Draw) T) ([]T, []bool) {
	if start < 0 || count < 0 {
		panic("sim: negative trial range")
	}
	out := make([]T, count)
	completed := b.runLoop(ctx, count, func() (func(int), func()) {
		draw, done := b.worker()
		return func(i int) {
			g := start + i
			out[i] = body(g, rng.NewStream(b.Seed, uint64(g)), draw)
		}, done
	})
	return out, completed
}

// noDraw is the Draw of a runner without a Model.
func noDraw(*rng.Stream) *temporal.Network { return nil }

// worker returns one worker goroutine's Draw and the hook that releases
// its state when the goroutine exits. A runner without a Model draws
// nothing and leaves the free list alone.
func (b *BatchRunner) worker() (Draw, func()) {
	if b.Model == nil {
		return noDraw, nil
	}
	w := b.acquire()
	return w.instance, func() { b.release(w) }
}

// runLoop is the claim-execute core Run and ObserveFrom share: workers
// claim trial offsets 0 … count−1 in atomic order; makeRun is invoked once
// per worker goroutine — per-worker reusable state, such as the worker's
// substrate network and time-edge index, lives in the returned closure —
// and the body executes one offset, storing its own result. Because
// per-trial randomness depends only on the global trial index, worker
// count and claim order never change any number. A panic in a body aborts
// the remaining trials and is re-raised on the calling goroutine; the
// returned flags report which offsets completed.
func (b *BatchRunner) runLoop(ctx context.Context, count int, makeRun func() (run func(offset int), done func())) []bool {
	workers := b.Workers
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
				if completed[i] && b.OnTrial != nil {
					b.OnTrial()
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
