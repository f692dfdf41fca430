package sweep

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// runnerSource is the Source Adaptive.Estimate runs an Observable on:
// plain sim.Runner trials under seed.
func runnerSource(seed uint64, obs Observable) Source {
	runner := sim.Runner{Seed: seed}
	return func(ctx context.Context, start, count int) ([]float64, error) {
		return runner.ScalarsFromContext(ctx, start, count, sim.ScalarTrial(obs))
	}
}

// logistic is the monotone synthetic oracle: a rising sigmoid crossing 0.5
// at x = c with slope scale s.
func logistic(c, s float64) Response {
	return func(x float64) (float64, error) {
		return 1 / (1 + math.Exp(-(x-c)/s)), nil
	}
}

func TestThresholdConvergesOnSyntheticOracle(t *testing.T) {
	const c = 0.37
	th := Threshold{Target: 0.5, Lo: 0, Hi: 1, Tol: 1e-4}
	cr, err := th.Find(logistic(c, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Converged {
		t.Fatalf("did not converge: %+v", cr)
	}
	if math.Abs(cr.X-c) > 1e-4 {
		t.Fatalf("crossing %v, want %v ± 1e-4", cr.X, c)
	}
	if !(cr.Lo <= c && c <= cr.Hi) {
		t.Fatalf("true crossing outside final bracket [%v, %v]", cr.Lo, cr.Hi)
	}
}

func TestThresholdDecreasingResponse(t *testing.T) {
	// Falling response: f(x) = 1 − logistic; crossing of 0.5 still at c.
	const c = 0.62
	rise := logistic(c, 0.03)
	fall := func(x float64) (float64, error) {
		y, _ := rise(x)
		return 1 - y, nil
	}
	cr, err := Threshold{Target: 0.5, Lo: 0, Hi: 1, Tol: 1e-5, Decreasing: true}.Find(fall)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cr.X-c) > 1e-5 {
		t.Fatalf("crossing %v, want %v", cr.X, c)
	}
}

func TestThresholdTargetLevelsOtherThanHalf(t *testing.T) {
	// Analytic inverse: logistic crosses y at c + s·ln(y/(1−y)).
	const c, s = 0.4, 0.08
	for _, target := range []float64{0.25, 0.9} {
		want := c + s*math.Log(target/(1-target))
		cr, err := Threshold{Target: target, Lo: -1, Hi: 2, Tol: 1e-6}.Find(logistic(c, s))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cr.X-want) > 1e-6 {
			t.Errorf("target %v: crossing %v, want %v", target, cr.X, want)
		}
	}
}

func TestThresholdBracketExpansion(t *testing.T) {
	// Initial bracket [0.8, 0.9] sits entirely above the crossing 0.37;
	// expansion must walk it down.
	cr, err := Threshold{Target: 0.5, Lo: 0.8, Hi: 0.9, Tol: 1e-4, Expand: 8}.Find(logistic(0.37, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cr.X-0.37) > 1e-4 {
		t.Fatalf("crossing %v after expansion, want 0.37", cr.X)
	}
}

func TestThresholdNoStraddleFails(t *testing.T) {
	_, err := Threshold{Target: 0.5, Lo: 0.8, Hi: 0.9, Tol: 1e-4}.Find(logistic(0.37, 0.05))
	if err == nil {
		t.Fatal("non-straddling bracket without Expand should error")
	}
}

func TestThresholdMaxEvalsCaps(t *testing.T) {
	evals := 0
	counted := func(x float64) (float64, error) {
		evals++
		y, _ := logistic(0.5, 0.1)(x)
		return y, nil
	}
	cr, err := Threshold{Target: 0.5, Lo: 0, Hi: 1, Tol: 1e-12, MaxEvals: 10}.Find(counted)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Converged {
		t.Fatal("cannot reach 1e-12 in 10 evals")
	}
	if evals != 10 || cr.Evals != 10 {
		t.Fatalf("evals = %d (reported %d), want exactly 10", evals, cr.Evals)
	}
}

func TestThresholdPropagatesResponseError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	_, err := Threshold{Target: 0.5, Lo: 0, Hi: 1, Tol: 1e-3}.Find(func(x float64) (float64, error) {
		calls++
		if calls == 3 {
			return 0, boom
		}
		return logistic(0.5, 0.1)(x)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestThresholdInvalidSpecs(t *testing.T) {
	f := logistic(0.5, 0.1)
	if _, err := (Threshold{Target: 0.5, Lo: 1, Hi: 0, Tol: 1e-3}).Find(f); err == nil {
		t.Fatal("inverted bracket should error")
	}
	if _, err := (Threshold{Target: 0.5, Lo: 0, Hi: 1}).Find(f); err == nil {
		t.Fatal("zero tolerance should error")
	}
	if _, err := (Threshold{Target: math.NaN(), Lo: 0, Hi: 1, Tol: 1e-3}).Find(f); err == nil {
		t.Fatal("NaN target should error")
	}
}

// TestThresholdOverAdaptiveEstimates closes the loop the subsystem exists
// for: FindAdaptiveSource bisects a knob whose response is an adaptive
// Monte-Carlo estimate under common random numbers, lands within the
// statistical resolution of those estimates, and reports the crossing's
// own interval.
func TestThresholdOverAdaptiveEstimates(t *testing.T) {
	const c = 0.44
	a := Adaptive{Seed: 77, Kind: Proportion, Prec: Precision{Abs: 0.02, MaxTrials: 30000}}
	obs := func(x float64) Observable {
		return func(trial int, r *rng.Stream) float64 {
			// Steep monotone family: P(success) = logistic((x-c)/0.02).
			p := 1 / (1 + math.Exp(-(x-c)/0.02))
			if r.Bernoulli(p) {
				return 1
			}
			return 0
		}
	}
	cr, at, trials, err := Threshold{Target: 0.5, Lo: 0, Hi: 1, Tol: 0.01}.
		FindAdaptiveSource(context.Background(), a, func(x float64) Source { return runnerSource(a.Seed, obs(x)) })
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Converged {
		t.Fatalf("did not converge: %+v", cr)
	}
	// Estimate noise ±0.02 on a logistic with scale 0.02 maps to ~±0.001
	// of knob error near the crossing; allow the bracket tolerance plus
	// generous slack.
	if math.Abs(cr.X-c) > 0.02 {
		t.Fatalf("crossing %v, want %v ± 0.02", cr.X, c)
	}
	// The returned estimate is the re-estimate at cr.X: converged to spec
	// and near the target level.
	if !at.Converged || at.Half > 0.02 {
		t.Fatalf("estimate at crossing did not meet precision: %+v", at)
	}
	if math.Abs(at.Point-0.5) > 0.15 {
		t.Fatalf("P at crossing = %v, want ≈ 0.5", at.Point)
	}
	if trials < at.N {
		t.Fatalf("trial total %d below final estimate's %d", trials, at.N)
	}
}

// TestFindAdaptiveCancellation: a cancelled context surfaces instead of
// yielding a bogus crossing.
func TestFindAdaptiveCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := Adaptive{Seed: 1, Kind: Proportion, Prec: Precision{MaxTrials: 100}}
	zero := runnerSource(a.Seed, func(int, *rng.Stream) float64 { return 0 })
	_, _, _, err := Threshold{Target: 0.5, Lo: 0, Hi: 1, Tol: 0.01}.
		FindAdaptiveSource(ctx, a, func(float64) Source { return zero })
	if err == nil {
		t.Fatal("want context error")
	}
}
