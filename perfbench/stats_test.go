package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.5, 5, 7.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSpreadIsQuartileDistanceOverMedian(t *testing.T) {
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// 1000 samples: the p99 is the 990th, with exactly 10 above it.
	if v, ok := percentile(sample(1000), 99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	// 999 samples leave only 9 above the p99.
	if _, ok := percentile(sample(999), 99); ok {
		t.Fatal("p99 of 999 samples reported as valid")
	}
	// The p50 of 20 samples has 10 above it; of 19, only 9.
	if v, ok := percentile(sample(20), 50); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if _, ok := percentile(sample(19), 50); ok {
		t.Fatal("p50 of 19 samples reported as valid")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Fatal("percentile of no samples reported as valid")
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, "lower"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 100→110 worse by %v, want 0.1", got)
	}
	if got := worseBy(100, 90, "higher"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("higher-is-better 100→90 worse by %v, want 0.1", got)
	}
	if got := worseBy(100, 120, "higher"); got >= 0 {
		t.Errorf("higher-is-better 100→120 worse by %v, want negative", got)
	}
}
