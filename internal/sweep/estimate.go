package sweep

import (
	"context"
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/temporal"
)

// Kind selects the estimator and interval family for a response.
type Kind string

const (
	// Mean estimates E[X] with a Welford accumulator and a Student-t
	// confidence interval; observations may be any finite float64.
	Mean Kind = "mean"
	// Proportion estimates P(X = 1) with a Wilson score interval;
	// observations must be exactly 0 or 1.
	Proportion Kind = "proportion"
)

func (k Kind) valid() bool { return k == Mean || k == Proportion }

// Precision is the adaptive stopping rule: run trials until the
// confidence interval's half-width is small enough, bounded by a trial
// cap. The zero value selects every default.
type Precision struct {
	// Confidence is the two-sided interval level; 0 means 0.95.
	Confidence float64 `json:"confidence,omitempty"`
	// Abs is the absolute half-width target; met when half ≤ Abs.
	Abs float64 `json:"abs,omitempty"`
	// Rel is the relative half-width target; met when half ≤ Rel·|point|.
	// When both Abs and Rel are set the looser one decides (stop when
	// half ≤ max(Abs, Rel·|point|)); when neither is set Abs = 0.05.
	Rel float64 `json:"rel,omitempty"`
	// MinTrials is the floor before the rule may stop; 0 means 8.
	MinTrials int `json:"min_trials,omitempty"`
	// MaxTrials is the cap; 0 means 4096. Hitting it ends the loop with
	// Converged = false.
	MaxTrials int `json:"max_trials,omitempty"`
	// Batch is the smallest batch size; 0 means 32. The loop grows
	// batches toward the CI-projected need, so Batch only bounds the
	// granularity of stopping-rule checks.
	Batch int `json:"batch,omitempty"`
}

func (p Precision) withDefaults() Precision {
	if p.Confidence == 0 {
		p.Confidence = 0.95
	}
	if p.Abs == 0 && p.Rel == 0 {
		p.Abs = 0.05
	}
	if p.MinTrials <= 0 {
		p.MinTrials = 8
	}
	if p.MaxTrials <= 0 {
		p.MaxTrials = 4096
	}
	if p.Batch <= 0 {
		p.Batch = 32
	}
	if p.MinTrials > p.MaxTrials {
		p.MinTrials = p.MaxTrials
	}
	return p
}

// Validate rejects out-of-range stopping-rule fields.
func (p Precision) Validate() error {
	if !(p.Confidence == 0 || (p.Confidence > 0 && p.Confidence < 1)) {
		return fmt.Errorf("sweep: confidence %v outside (0,1)", p.Confidence)
	}
	if p.Abs < 0 || p.Rel < 0 {
		return fmt.Errorf("sweep: negative precision target (abs=%v rel=%v)", p.Abs, p.Rel)
	}
	if p.MinTrials < 0 || p.MaxTrials < 0 || p.Batch < 0 {
		return fmt.Errorf("sweep: negative trial bounds (min=%d max=%d batch=%d)",
			p.MinTrials, p.MaxTrials, p.Batch)
	}
	return nil
}

// goal is the half-width that satisfies the rule at the given point
// estimate: the looser of the absolute and relative targets.
func (p Precision) goal(point float64) float64 {
	g := p.Abs
	if p.Rel > 0 && !math.IsNaN(point) {
		if r := p.Rel * math.Abs(point); r > g {
			g = r
		}
	}
	return g
}

// Estimate is a point estimate with its confidence interval.
type Estimate struct {
	Kind Kind `json:"kind"`
	// N is the number of trials consumed.
	N int `json:"n"`
	// Successes is the success count for Proportion estimates.
	Successes int `json:"successes,omitempty"`
	// Point is the point estimate (p̂ or the sample mean).
	Point float64 `json:"point"`
	// Lo and Hi bound the confidence interval; Half is its half-width.
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
	Half float64 `json:"half"`
	// Converged reports the precision target was met before MaxTrials.
	Converged bool `json:"converged"`
}

// Observable produces one scalar observation per trial, drawing randomness
// only from the provided stream (the stream for global trial index
// `trial`), so observations are bit-deterministic per (seed, trial).
type Observable func(trial int, r *rng.Stream) float64

// Source executes the trials with global indices start, …, start+count−1
// and returns the completed observations in trial order. It is the
// executor the adaptive loop batches through when the default one, a
// sim.BatchRunner without a model, is not enough — most importantly a
// BatchRunner with a model and substrate, whose ObserveFrom amortizes
// substrate and index construction across a cell's trials.
//
// A Source owns the whole determinism contract for its trials: observation
// i must be a function only of (its seed, i), never of worker count or
// scheduling — a conforming source changes how fast an estimate is
// computed, never its value, which is why SpecKey does not mention it. On
// cancellation it returns the completed prefix-in-order along with the
// context's error, exactly as sim.BatchRunner.ObserveFrom does.
type Source func(ctx context.Context, start, count int) ([]float64, error)

// Adaptive runs the CI-driven trial loop for one response.
type Adaptive struct {
	// Seed is the base seed; trial i draws from rng.NewStream(Seed, i).
	Seed uint64
	// Workers bounds batch parallelism; 0 means GOMAXPROCS. Results are
	// bit-identical for every value.
	Workers int
	// Kind selects the estimator; empty means Proportion.
	Kind Kind
	// Prec is the stopping rule.
	Prec Precision
	// OnBatch, when non-nil, observes the running estimate after each
	// batch (called from the loop goroutine, in order).
	OnBatch func(Estimate)
	// OnTrial, when non-nil, is invoked once per completed trial from
	// worker goroutines; it must be safe for concurrent use.
	OnTrial func()
}

// Estimate runs batches of trials until the confidence interval meets the
// precision target or MaxTrials is consumed. The returned Estimate is a
// pure function of (Seed, Kind, Prec) — never of Workers or ctx timing; a
// cancelled loop returns the estimate over the trials that completed along
// with the context's error.
func (a Adaptive) Estimate(ctx context.Context, obs Observable) (Estimate, error) {
	b := &sim.BatchRunner{Seed: a.Seed, Workers: a.Workers, OnTrial: a.OnTrial}
	return a.EstimateSource(ctx, func(ctx context.Context, start, count int) ([]float64, error) {
		return b.ObserveFrom(ctx, start, count, func(trial int, _ *temporal.Network, r *rng.Stream) float64 {
			return obs(trial, r)
		})
	})
}

// EstimateSource is Estimate batching through an explicit trial source
// instead of the default model-less sim.BatchRunner — the entry point for
// batched execution (see Source). The Adaptive's Seed, Workers and OnTrial
// are not consulted: a source carries its own; conforming sources make the
// returned Estimate identical to Estimate over the equivalent Observable.
func (a Adaptive) EstimateSource(ctx context.Context, src Source) (Estimate, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	kind := a.Kind
	if kind == "" {
		kind = Proportion
	}
	if !kind.valid() {
		return Estimate{}, fmt.Errorf("sweep: unknown estimator kind %q", a.Kind)
	}
	if err := a.Prec.Validate(); err != nil {
		return Estimate{}, err
	}
	p := a.Prec.withDefaults()
	if kind == Mean && p.MaxTrials < 2 {
		// A mean needs two observations for any interval at all; a
		// 1-trial cap would finish with Half = +Inf, which downstream
		// JSON encodings (checkpoints, service payloads) cannot carry.
		p.MinTrials, p.MaxTrials = 2, 2
	}

	var w stats.Welford
	successes := 0
	est := Estimate{Kind: kind}
	for w.N() < p.MaxTrials {
		batch := nextBatch(w.N(), est, p)
		vals, runErr := src(ctx, w.N(), batch)
		// Fold in trial order: the estimator state stays a pure fold over
		// the observation sequence (see the package determinism contract).
		for _, v := range vals {
			if math.IsNaN(v) {
				// The contract for "this point cannot be measured" (e.g.
				// infeasible model parameters): fail the estimate loudly
				// instead of folding a poisoned or silently-wrong value.
				return est, fmt.Errorf("sweep: observable returned NaN — the point is unmeasurable (infeasible parameters?)")
			}
			if kind == Proportion {
				if v != 0 && v != 1 {
					return est, fmt.Errorf("sweep: proportion observable returned %v, want 0 or 1", v)
				}
				if v == 1 {
					successes++
				}
			}
			w.Add(v)
		}
		est = finishEstimate(kind, &w, successes, p)
		observeBatch(batch, est)
		if a.OnBatch != nil {
			a.OnBatch(est)
		}
		if runErr != nil {
			return est, runErr
		}
		if est.Converged {
			break
		}
	}
	return est, nil
}

// nextBatch sizes the next batch from the current interval: project the
// total trials needed for the goal half-width (half ∝ 1/√n), clamp the
// growth to 3× the current count so a noisy early variance estimate cannot
// overshoot the cap in one jump, and respect the Batch floor and MaxTrials
// ceiling. Reads only aggregated state, so the schedule is deterministic.
func nextBatch(n int, est Estimate, p Precision) int {
	left := p.MaxTrials - n
	if n == 0 {
		b := p.Batch
		if p.MinTrials > b {
			b = p.MinTrials
		}
		return min(b, left)
	}
	need := left
	if goal := p.goal(est.Point); goal > 0 && est.Half > goal && !math.IsInf(est.Half, 1) {
		ratio := est.Half / goal
		projected := int(math.Ceil(float64(n)*ratio*ratio)) - n
		if projected < need {
			need = projected
		}
	}
	if cap3 := 3 * n; need > cap3 {
		need = cap3
	}
	if need < p.Batch {
		need = p.Batch
	}
	return min(need, left)
}

// finishEstimate computes the interval for the current accumulator state
// and applies the stopping rule.
func finishEstimate(kind Kind, w *stats.Welford, successes int, p Precision) Estimate {
	est := Estimate{Kind: kind, N: w.N()}
	switch kind {
	case Proportion:
		est.Successes = successes
		if w.N() == 0 {
			est.Point, est.Lo, est.Hi = math.NaN(), math.NaN(), math.NaN()
			est.Half = math.Inf(1)
			break
		}
		est.Point = float64(successes) / float64(w.N())
		est.Lo, est.Hi = stats.Wilson(successes, w.N(), p.Confidence)
		est.Half = (est.Hi - est.Lo) / 2
	case Mean:
		est.Point = w.Mean()
		est.Half = stats.MeanCI(w.StdDev(), w.N(), p.Confidence)
		est.Lo, est.Hi = est.Point-est.Half, est.Point+est.Half
	}
	est.Converged = est.N >= p.MinTrials && est.Half <= p.goal(est.Point)
	return est
}
