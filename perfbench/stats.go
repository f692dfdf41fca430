package main

import (
	"math"
	"slices"
)

// minBeyond is the number of samples that must lie above a percentile
// before it is reported: a p99 over fewer than 1000 samples would be the
// maximum of a handful of outliers, not a percentile.
const minBeyond = 10

// quartiles returns the three cut points of xs into four equal groups by
// the method of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method): the cut i sits at position i·(len+1)/4 of the sorted data,
// interpolated between neighbours. len(xs) must be at least 2.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	m := len(d) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// spread is the distance between the first and third quartiles of xs as
// a share of their median — the run-to-run noise a bound must exceed.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// sorted, and ok = false when fewer than minBeyond samples lie above it.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n-rank >= minBeyond
}

// percentileOf is percentile over an unsorted sample; it sorts xs.
func percentileOf(xs []float64, p float64) (float64, bool) {
	slices.Sort(xs)
	return percentile(xs, p)
}

// worseBy returns how much worse b is than a as a share of a, for a
// metric where lower (better = "lower") or higher is better; negative
// means b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}
