package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations. The zero value is an empty sample ready
// for use. Add is O(1); order statistics sort lazily and cache until the
// next Add.
type Sample struct {
	xs     []float64 // insertion order, never reordered (see Values)
	sorted []float64 // lazily built order-statistic cache; nil when stale

	w          Welford // single home of the streaming-moment recurrence
	min, max   float64
	haveMinMax bool
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = nil
	s.w.Add(x)
	if !s.haveMinMax || x < s.min {
		s.min = x
	}
	if !s.haveMinMax || x > s.max {
		s.max = x
	}
	s.haveMinMax = true
}

// N returns the number of observations.
func (s *Sample) N() int { return s.w.N() }

// Mean returns the sample mean, or NaN for an empty sample.
func (s *Sample) Mean() float64 { return s.w.Mean() }

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return s.w.StdDev() }

// StdErr returns the standard error of the mean.
func (s *Sample) StdErr() float64 { return s.w.StdErr() }

// Min returns the smallest observation, or NaN for an empty sample.
func (s *Sample) Min() float64 {
	if !s.haveMinMax {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation, or NaN for an empty sample.
func (s *Sample) Max() float64 {
	if !s.haveMinMax {
		return math.NaN()
	}
	return s.max
}

// Sum returns the sum of all observations (0 when empty).
func (s *Sample) Sum() float64 {
	if s.w.N() == 0 {
		return 0
	}
	return s.w.Mean() * float64(s.w.N())
}

// Values returns the observations in insertion order as a fresh slice.
// sim's differential tests compare Results value by value through it.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

func (s *Sample) ensureSorted() {
	if s.sorted == nil {
		s.sorted = make([]float64, len(s.xs))
		copy(s.sorted, s.xs)
		sort.Float64s(s.sorted)
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between order statistics (the same rule as numpy's default). It returns
// NaN for an empty sample and panics for q outside [0,1].
func (s *Sample) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	if s.N() == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	if s.N() == 1 {
		return s.sorted[0]
	}
	pos := q * float64(s.N()-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.sorted[lo]
	}
	frac := pos - float64(lo)
	return s.sorted[lo]*(1-frac) + s.sorted[hi]*frac
}

// CI95 returns the half-width of a 95% normal-approximation confidence
// interval for the mean: 1.96 · stderr. For small n this understates the
// t-interval slightly; experiments use n ≥ 30 trials.
func (s *Sample) CI95() float64 {
	return 1.96 * s.StdErr()
}

// String summarizes the sample for debugging output.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		s.N(), s.Mean(), s.StdDev(), s.Min(), s.Max())
}

// LinFit is a least-squares straight-line fit y ≈ Alpha + Beta·x with its
// coefficient of determination. Experiments use it to fit measured temporal
// diameters against log₂ n and report the slope γ.
type LinFit struct {
	Alpha, Beta float64
	R2          float64
	N           int
}

// Fit computes the least-squares line through the points (xs[i], ys[i]).
// It panics if the slices differ in length and returns a degenerate fit
// (NaNs) when fewer than two points or zero x-variance are supplied.
func Fit(xs, ys []float64) LinFit {
	if len(xs) != len(ys) {
		panic("stats: Fit length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return LinFit{Alpha: math.NaN(), Beta: math.NaN(), R2: math.NaN(), N: n}
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinFit{Alpha: math.NaN(), Beta: math.NaN(), R2: math.NaN(), N: n}
	}
	beta := sxy / sxx
	alpha := my - beta*mx
	r2 := 1.0
	if syy > 0 {
		ssRes := syy - beta*sxy
		r2 = 1 - ssRes/syy
	}
	return LinFit{Alpha: alpha, Beta: beta, R2: r2, N: n}
}

// BinomialCI returns the Wilson score 95% confidence interval for a
// proportion with k successes out of n trials. Experiments use it to report
// uncertainty on empirical "with high probability" success rates.
func BinomialCI(k, n int) (lo, hi float64) {
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	const z = 1.96
	p := float64(k) / float64(n)
	nn := float64(n)
	denom := 1 + z*z/nn
	center := (p + z*z/(2*nn)) / denom
	half := z * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
