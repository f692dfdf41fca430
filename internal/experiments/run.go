package experiments

import (
	"context"
	"sync/atomic"
)

// Meta is the machine-readable provenance of a completed (or cancelled)
// experiment run — everything a service needs to key, cache, and describe
// the Result without parsing rendered tables.
type Meta struct {
	// ID, Title and Anchor mirror the registry entry that ran.
	ID     string `json:"id"`
	Title  string `json:"title"`
	Anchor string `json:"anchor"`
	// Seed and Quick echo the Config; together with ID they determine
	// every number in the Result, which is what makes results cacheable.
	Seed  uint64 `json:"seed"`
	Quick bool   `json:"quick"`
	// Trials counts the Monte-Carlo trials that completed, summed across
	// the driver's runs. Drivers that estimate through core's bisection
	// search (E6, E8) run their probes outside the progress hook and
	// report 0.
	Trials int `json:"trials"`
}

// Run executes e under ctx with per-trial progress accounting. The context
// overrides cfg.Ctx; cfg.Progress, if set, still fires per completed trial.
// On cancellation the partial Result is discarded and the context's error
// returned; a nil error guarantees the Result is the same bit-identical
// output e.Run(cfg) produces without any plumbing.
func Run(ctx context.Context, e Experiment, cfg Config) (Result, Meta, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	meta := Meta{ID: e.ID, Title: e.Title, Anchor: e.Anchor, Seed: cfg.Seed, Quick: cfg.Quick}
	var completed atomic.Int64
	user := cfg.Progress
	cfg.Ctx = ctx
	cfg.Progress = func() {
		completed.Add(1)
		if user != nil {
			user()
		}
	}
	res := e.Run(cfg)
	meta.Trials = int(completed.Load())
	if err := ctx.Err(); err != nil {
		return Result{}, meta, err
	}
	return res, meta, nil
}
