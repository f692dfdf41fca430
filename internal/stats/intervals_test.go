package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestWelfordMatchesSample(t *testing.T) {
	r := rng.New(11)
	var w Welford
	var s Sample
	for i := 0; i < 1000; i++ {
		x := r.NormFloat64()*3 + 7
		w.Add(x)
		s.Add(x)
	}
	if w.N() != s.N() {
		t.Fatalf("N: welford %d sample %d", w.N(), s.N())
	}
	// Both run the same Welford recurrence, so the agreement is bitwise.
	if math.Float64bits(w.Mean()) != math.Float64bits(s.Mean()) {
		t.Fatalf("mean: welford %v sample %v", w.Mean(), s.Mean())
	}
	if math.Float64bits(w.StdDev()) != math.Float64bits(s.StdDev()) {
		t.Fatalf("sd: welford %v sample %v", w.StdDev(), s.StdDev())
	}
	if math.Float64bits(w.StdErr()) != math.Float64bits(s.StdErr()) {
		t.Fatalf("stderr: welford %v sample %v", w.StdErr(), s.StdErr())
	}
}

func TestWelfordDegenerate(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.Var()) || !math.IsNaN(w.StdErr()) {
		t.Fatal("empty Welford should be NaN across the board")
	}
	w.Add(4)
	if w.Mean() != 4 {
		t.Fatalf("mean after one add: %v", w.Mean())
	}
	if !math.IsNaN(w.Var()) {
		t.Fatal("variance of a single observation should be NaN")
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.995, 2.5758293035489004},
		{0.9995, 3.2905267314918945},
		{0.025, -1.959963984540054},
		{0.841344746068543, 1}, // Φ(1)
	}
	for _, c := range cases {
		got := NormalQuantile(c.p)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-8, 1e-4, 0.01, 0.2, 0.5, 0.7, 0.99, 1 - 1e-6} {
		x := NormalQuantile(p)
		back := 0.5 * math.Erfc(-x/math.Sqrt2)
		if math.Abs(back-p) > 1e-12 {
			t.Errorf("Φ(Φ⁻¹(%g)) = %g", p, back)
		}
	}
}

// TestTQuantileClosedForms pins the t quantile against standard table
// values (two-sided 95% and 99% critical values).
func TestTQuantileClosedForms(t *testing.T) {
	cases := []struct {
		p    float64
		df   int
		want float64
	}{
		{0.975, 1, 12.7062047364},
		{0.975, 2, 4.3026527297},
		{0.975, 5, 2.5705818356},
		{0.975, 10, 2.2281388520},
		{0.975, 30, 2.0422724563},
		{0.995, 5, 4.0321429836},
		{0.995, 30, 2.7499956536},
		{0.975, 1000, 1.9623390808},
	}
	for _, c := range cases {
		got := TQuantile(c.p, c.df)
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("TQuantile(%v, %d) = %.10f, want %.10f", c.p, c.df, got, c.want)
		}
		// Symmetry.
		if lo := TQuantile(1-c.p, c.df); math.Abs(lo+got) > 1e-9 {
			t.Errorf("TQuantile symmetry broken at df=%d: %v vs %v", c.df, lo, got)
		}
	}
	// df=1 is the Cauchy distribution: CDF(t) = 1/2 + atan(t)/π exactly.
	for _, x := range []float64{0.3, 1, 2.5, 10} {
		want := 0.5 + math.Atan(x)/math.Pi
		if got := TCDF(x, 1); math.Abs(got-want) > 1e-12 {
			t.Errorf("TCDF(%v, 1) = %v, want Cauchy %v", x, got, want)
		}
	}
}

func TestMeanCI(t *testing.T) {
	// Closed form: half = t_{0.975,df=n-1} · sd/√n.
	want := 2.2621571628 * 3 / math.Sqrt(10) // df=9
	if got := MeanCI(3, 10, 0.95); math.Abs(got-want) > 1e-6 {
		t.Errorf("MeanCI(3,10,0.95) = %v, want %v", got, want)
	}
	if got := MeanCI(3, 1, 0.95); !math.IsInf(got, 1) {
		t.Errorf("MeanCI with one observation should be +Inf, got %v", got)
	}
	if got := MeanCI(math.NaN(), 50, 0.95); !math.IsInf(got, 1) {
		t.Errorf("MeanCI with NaN sd should be +Inf, got %v", got)
	}
	if got := MeanCI(0, 10, 0.95); got != 0 {
		t.Errorf("MeanCI with zero sd should be 0, got %v", got)
	}
}

func TestWilsonDegenerate(t *testing.T) {
	if lo, hi := Wilson(0, 0, 0.95); !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Fatalf("Wilson with n=0 should be NaN, got [%v,%v]", lo, hi)
	}
	// p̂ = 0 and p̂ = 1 keep positive width and stay inside [0,1].
	lo, hi := Wilson(0, 20, 0.95)
	if lo != 0 || !(hi > 0 && hi < 1) {
		t.Fatalf("Wilson(0,20) = [%v,%v]", lo, hi)
	}
	lo, hi = Wilson(20, 20, 0.95)
	if hi != 1 || !(lo > 0 && lo < 1) {
		t.Fatalf("Wilson(20,20) = [%v,%v]", lo, hi)
	}
	// At z=1.96 the generalized interval must agree with BinomialCI to the
	// difference between 1.96 and the exact 97.5% quantile.
	lo, hi = Wilson(7, 30, 0.95)
	blo, bhi := BinomialCI(7, 30)
	if math.Abs(lo-blo) > 1e-4 || math.Abs(hi-bhi) > 1e-4 {
		t.Fatalf("Wilson [%v,%v] vs BinomialCI [%v,%v]", lo, hi, blo, bhi)
	}
}

// TestWilsonCoverage checks empirically, at fixed seeds, that the Wilson
// interval's coverage is at least nominal minus a small Monte-Carlo slack
// across a spread of p values including the extremes where Wald collapses.
func TestWilsonCoverage(t *testing.T) {
	// Wilson's exact coverage oscillates with np and dips a few points
	// below nominal when n·min(p,1−p) ≈ 1 (the regime where every
	// Wald-style interval collapses outright), so the floor allows the
	// documented oscillation plus Monte-Carlo noise on the estimate.
	const (
		reps  = 2000
		n     = 50
		conf  = 0.95
		slack = 0.045
	)
	for _, p := range []float64{0.02, 0.1, 0.5, 0.9, 0.98} {
		r := rng.New(uint64(1000 * p))
		cover := 0
		for rep := 0; rep < reps; rep++ {
			k := 0
			for i := 0; i < n; i++ {
				if r.Bernoulli(p) {
					k++
				}
			}
			lo, hi := Wilson(k, n, conf)
			if lo <= p && p <= hi {
				cover++
			}
		}
		got := float64(cover) / reps
		if got < conf-slack {
			t.Errorf("Wilson coverage at p=%v: %.4f < %v-%v", p, got, conf, slack)
		}
	}
}

// TestTIntervalCoverage does the same for the Student-t mean interval on
// normal data, where nominal coverage is exact in distribution.
func TestTIntervalCoverage(t *testing.T) {
	const (
		reps  = 1500
		n     = 12
		conf  = 0.95
		slack = 0.02
		mu    = 3.5
	)
	r := rng.New(99)
	cover := 0
	for rep := 0; rep < reps; rep++ {
		var w Welford
		for i := 0; i < n; i++ {
			w.Add(mu + 2*r.NormFloat64())
		}
		half := MeanCI(w.StdDev(), w.N(), conf)
		if math.Abs(w.Mean()-mu) <= half {
			cover++
		}
	}
	got := float64(cover) / reps
	if got < conf-slack {
		t.Errorf("t-interval coverage: %.4f < %v-%v", got, conf, slack)
	}
}

func TestSampleString(t *testing.T) {
	s := sampleOf(1, 2, 3)
	if got := s.String(); got != "n=3 mean=2 sd=1 min=1 max=3" {
		t.Fatalf("String() = %q", got)
	}
}

func TestSampleValuesInsertionOrder(t *testing.T) {
	in := []float64{5, 1, 9, 3}
	s := sampleOf(in...)
	if s.Quantile(0.5) != 4 { // forces the order-statistic cache
		t.Fatalf("median = %v", s.Quantile(0.5))
	}
	got := s.Values()
	for i, v := range in {
		if got[i] != v {
			t.Fatalf("Values() reordered: got %v want %v", got, in)
		}
	}
	// And the cache did not leak into subsequent adds.
	s.Add(0)
	if s.Min() != 0 || s.Quantile(0) != 0 {
		t.Fatal("order statistics stale after Add")
	}
}
