package sweep

import (
	"context"
	"fmt"
	"math"
)

// Response evaluates the (assumed monotone) response at knob value x —
// typically an adaptive Monte-Carlo estimate such as P(connected) at edge
// probability x. Errors abort the search.
type Response func(x float64) (float64, error)

// Threshold locates where a monotone response crosses a target level by
// bracketing and bisection. Every evaluation point is a deterministic
// function of the spec and the response values, so a search over
// deterministic estimates is itself deterministic.
type Threshold struct {
	// Target is the response level whose crossing is sought, e.g. 0.5.
	Target float64
	// Lo and Hi bracket the knob; the response must straddle Target on
	// [Lo, Hi] (after optional expansion) or Find errors.
	Lo, Hi float64
	// Tol terminates the search when the bracket width reaches it.
	Tol float64
	// MaxEvals caps response evaluations; 0 means 64.
	MaxEvals int
	// Decreasing declares the response decreasing in x (e.g. failure
	// probability vs radius); default is increasing.
	Decreasing bool
	// Expand allows up to this many geometric bracket expansions when the
	// initial bracket does not straddle Target; 0 means fail immediately.
	// Expansion doubles the bracket width away from the satisfied side,
	// so keep it 0 for knobs with hard domain bounds.
	Expand int
	// OnEval, when non-nil, observes each (x, response) evaluation in
	// search order.
	OnEval func(x, y float64)
}

// Crossing is a located threshold.
type Crossing struct {
	// X is the crossing estimate: the midpoint of the final bracket.
	X float64 `json:"x"`
	// Lo and Hi are the final bracket; the crossing lies inside it.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// YLo and YHi are the response values at the final bracket ends.
	YLo float64 `json:"y_lo"`
	YHi float64 `json:"y_hi"`
	// Evals counts response evaluations spent.
	Evals int `json:"evals"`
	// Converged reports the bracket reached Tol within MaxEvals.
	Converged bool `json:"converged"`
}

// Find brackets and bisects the crossing. The bracket invariant is that
// the response sits on the Target's "before" side at Lo and its "after"
// side at Hi (swapped for Decreasing); responses exactly at Target count
// as crossed, so a flat-at-target response converges to the bracket's low
// end rather than oscillating.
func (t Threshold) Find(f Response) (Crossing, error) {
	if !(t.Lo < t.Hi) {
		return Crossing{}, fmt.Errorf("sweep: threshold bracket needs lo < hi, got [%v, %v]", t.Lo, t.Hi)
	}
	if !(t.Tol > 0) {
		return Crossing{}, fmt.Errorf("sweep: threshold needs tol > 0, got %v", t.Tol)
	}
	if math.IsNaN(t.Target) {
		return Crossing{}, fmt.Errorf("sweep: threshold target is NaN")
	}
	maxEvals := t.MaxEvals
	if maxEvals <= 0 {
		maxEvals = 64
	}
	cr := Crossing{Lo: t.Lo, Hi: t.Hi}
	eval := func(x float64) (float64, error) {
		cr.Evals++
		y, err := f(x)
		if err != nil {
			return y, err
		}
		if t.OnEval != nil {
			t.OnEval(x, y)
		}
		return y, nil
	}
	// before reports y on the not-yet-crossed side of the target.
	before := func(y float64) bool {
		if t.Decreasing {
			return y > t.Target
		}
		return y < t.Target
	}

	var err error
	if cr.YLo, err = eval(cr.Lo); err != nil {
		return cr, err
	}
	if cr.YHi, err = eval(cr.Hi); err != nil {
		return cr, err
	}
	for i := 0; !(before(cr.YLo) && !before(cr.YHi)); i++ {
		if i >= t.Expand {
			return cr, fmt.Errorf(
				"sweep: response does not straddle target %v on [%v, %v] (y=[%v, %v])",
				t.Target, cr.Lo, cr.Hi, cr.YLo, cr.YHi)
		}
		w := cr.Hi - cr.Lo
		if !before(cr.YLo) {
			cr.Lo -= w
			if cr.YLo, err = eval(cr.Lo); err != nil {
				return cr, err
			}
		} else {
			cr.Hi += w
			if cr.YHi, err = eval(cr.Hi); err != nil {
				return cr, err
			}
		}
	}

	for cr.Hi-cr.Lo > t.Tol && cr.Evals < maxEvals {
		mid := cr.Lo + (cr.Hi-cr.Lo)/2
		if mid <= cr.Lo || mid >= cr.Hi {
			break // bracket at float resolution
		}
		y, err := eval(mid)
		if err != nil {
			cr.X = cr.Lo + (cr.Hi-cr.Lo)/2
			return cr, err
		}
		if before(y) {
			cr.Lo, cr.YLo = mid, y
		} else {
			cr.Hi, cr.YHi = mid, y
		}
	}
	cr.X = cr.Lo + (cr.Hi-cr.Lo)/2
	cr.Converged = cr.Hi-cr.Lo <= t.Tol
	return cr, nil
}

// FindAdaptiveSource is Find with the response estimated adaptively at
// every probe, each probe's trials supplied by a Source built for that
// knob value (see Adaptive.EstimateSource): src(x) typically binds a
// model built for x to a sim.BatchRunner so every probe relabels
// per-worker networks in place. All probes share a's seed through their
// sources' construction, which the factory must preserve, so all
// evaluations share trial streams — common random numbers, which keeps
// the empirical response monotone up to model noise. After the bracket
// converges, the response is re-estimated once at the crossing so the
// returned Estimate (and its confidence interval) belongs to X rather
// than to a bracket endpoint; that deliberate extra probe is counted in
// the returned Crossing.Evals (so it can exceed Find's MaxEvals by one).
// trials totals the spend across every probe. This is the shared harness
// behind E18's c* search and cmd/sweep's threshold mode.
func (t Threshold) FindAdaptiveSource(ctx context.Context, a Adaptive, src func(x float64) Source) (cr Crossing, at Estimate, trials int, err error) {
	eval := func(x float64) (float64, error) {
		est, err := a.EstimateSource(ctx, src(x))
		trials += est.N
		at = est
		return est.Point, err
	}
	if cr, err = t.Find(eval); err != nil {
		return cr, at, trials, err
	}
	cr.Evals++
	if _, err = eval(cr.X); err != nil {
		return cr, at, trials, err
	}
	obsBisectionEvals.Observe(uint64(cr.Evals))
	return cr, at, trials, nil
}
