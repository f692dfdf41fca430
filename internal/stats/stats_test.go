package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

// sampleOf returns a Sample holding xs in order.
func sampleOf(xs ...float64) *Sample {
	var s Sample
	for _, x := range xs {
		s.Add(x)
	}
	return &s
}

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.N() != 0 {
		t.Fatal("empty sample N != 0")
	}
	for name, v := range map[string]float64{
		"Mean": s.Mean(), "StdDev": s.StdDev(), "Min": s.Min(), "Max": s.Max(),
		"StdErr": s.StdErr(), "Quantile": s.Quantile(0.5),
		"FractionAtMost": s.FractionAtMost(1),
	} {
		if !math.IsNaN(v) {
			t.Fatalf("empty sample %s = %v, want NaN", name, v)
		}
	}
}

func TestSampleBasicMoments(t *testing.T) {
	s := sampleOf(2, 4, 4, 4, 5, 5, 7, 9)
	if got := s.Mean(); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if got := s.StdDev(); !almostEqual(got*got, 32.0/7.0, 1e-12) {
		t.Fatalf("StdDev² = %v, want %v", got*got, 32.0/7.0)
	}
	if got := s.Min(); got != 2 {
		t.Fatalf("Min = %v", got)
	}
	if got := s.Max(); got != 9 {
		t.Fatalf("Max = %v", got)
	}
	if got := s.Sum(); !almostEqual(got, 40, 1e-9) {
		t.Fatalf("Sum = %v, want 40", got)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
}

func TestSingleObservation(t *testing.T) {
	var s Sample
	s.Add(3.5)
	if got := s.Mean(); got != 3.5 {
		t.Fatalf("Mean = %v", got)
	}
	if !math.IsNaN(s.StdDev()) {
		t.Fatal("StdDev of single observation should be NaN")
	}
	if got := s.Quantile(0.5); got != 3.5 {
		t.Fatalf("median = %v", got)
	}
}

func TestQuantiles(t *testing.T) {
	s := sampleOf(1, 2, 3, 4, 5)
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5},
	}
	for _, tc := range cases {
		if got := s.Quantile(tc.q); !almostEqual(got, tc.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestQuantileInterleavedWithAdd(t *testing.T) {
	// Quantile sorts lazily; a later Add must invalidate the cache.
	s := sampleOf(3, 1)
	if got := s.Quantile(0.5); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
	s.Add(100)
	if got := s.Quantile(0.5); got != 3 {
		t.Fatalf("median after Add = %v, want 3", got)
	}
	if got := s.Max(); got != 100 {
		t.Fatalf("Max after Add = %v, want 100", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	var s Sample
	s.Add(1)
	for _, q := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Quantile(%v) should panic", q)
				}
			}()
			s.Quantile(q)
		}()
	}
}

func TestFractionAtMost(t *testing.T) {
	s := sampleOf(1, 2, 2, 3, 10)
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.2}, {2, 0.6}, {2.5, 0.6}, {10, 1}, {11, 1},
	}
	for _, tc := range cases {
		if got := s.FractionAtMost(tc.x); !almostEqual(got, tc.want, 1e-12) {
			t.Fatalf("FractionAtMost(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	r := rng.New(99)
	var s Sample
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Float64()*100 - 50
		s.Add(xs[i])
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	naiveVar := ss / float64(len(xs)-1)
	if !almostEqual(s.Mean(), mean, 1e-9) {
		t.Fatalf("Welford mean %v != naive %v", s.Mean(), mean)
	}
	if sd := s.StdDev(); !almostEqual(sd*sd, naiveVar, 1e-7) {
		t.Fatalf("Welford var %v != naive %v", sd*sd, naiveVar)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	r := rng.New(4)
	var small, large Sample
	for i := 0; i < 100; i++ {
		small.Add(r.NormFloat64())
	}
	for i := 0; i < 10000; i++ {
		large.Add(r.NormFloat64())
	}
	if small.CI95() <= large.CI95() {
		t.Fatalf("CI95 did not shrink: small=%v large=%v", small.CI95(), large.CI95())
	}
	// CI for 10k standard normals should be ~1.96/sqrt(10000) ≈ 0.0196.
	if !almostEqual(large.CI95(), 0.0196, 0.005) {
		t.Fatalf("CI95 = %v, want ~0.0196", large.CI95())
	}
}

func TestFitExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	f := Fit(xs, ys)
	if !almostEqual(f.Alpha, 3, 1e-9) || !almostEqual(f.Beta, 2, 1e-9) {
		t.Fatalf("Fit = %+v, want alpha=3 beta=2", f)
	}
	if !almostEqual(f.R2, 1, 1e-12) {
		t.Fatalf("R2 = %v, want 1", f.R2)
	}
	if got := f.Alpha + f.Beta*10; !almostEqual(got, 23, 1e-9) {
		t.Fatalf("fit at 10 = %v, want 23", got)
	}
}

func TestFitNoisyLine(t *testing.T) {
	r := rng.New(17)
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := float64(i) / 10
		xs = append(xs, x)
		ys = append(ys, 1+0.5*x+r.NormFloat64()*0.1)
	}
	f := Fit(xs, ys)
	if !almostEqual(f.Beta, 0.5, 0.01) {
		t.Fatalf("Beta = %v, want ~0.5", f.Beta)
	}
	if f.R2 < 0.98 {
		t.Fatalf("R2 = %v, want > 0.98", f.R2)
	}
}

func TestFitDegenerate(t *testing.T) {
	if f := Fit([]float64{1}, []float64{2}); !math.IsNaN(f.Beta) {
		t.Fatal("single-point fit should be NaN")
	}
	if f := Fit([]float64{2, 2, 2}, []float64{1, 2, 3}); !math.IsNaN(f.Beta) {
		t.Fatal("zero x-variance fit should be NaN")
	}
}

func TestFitMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Fit with mismatched lengths should panic")
		}
	}()
	Fit([]float64{1, 2}, []float64{1})
}

func TestMeanOfInts(t *testing.T) {
	if got := MeanOfInts([]int{1, 2, 3, 4}); !almostEqual(got, 2.5, 1e-12) {
		t.Fatalf("MeanOfInts = %v, want 2.5", got)
	}
	if !math.IsNaN(MeanOfInts(nil)) {
		t.Fatal("MeanOfInts(nil) should be NaN")
	}
}

func TestBinomialCI(t *testing.T) {
	lo, hi := BinomialCI(50, 100)
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("CI [%v,%v] should contain 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Fatalf("CI [%v,%v] too wide for n=100", lo, hi)
	}
	// Extremes stay within [0,1].
	lo, hi = BinomialCI(0, 50)
	if lo != 0 || hi <= 0 || hi >= 0.2 {
		t.Fatalf("CI for 0/50 = [%v,%v]", lo, hi)
	}
	lo, hi = BinomialCI(50, 50)
	if hi != 1 || lo >= 1 || lo <= 0.8 {
		t.Fatalf("CI for 50/50 = [%v,%v]", lo, hi)
	}
	lo, hi = BinomialCI(0, 0)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Fatal("CI for n=0 should be NaN")
	}
}

// Property: Quantile is monotone in q and bounded by [Min, Max].
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			s.Add(x)
		}
		clamp := func(q float64) float64 {
			q = math.Abs(q)
			q -= math.Floor(q) // to [0,1)
			return q
		}
		a, b := clamp(q1), clamp(q2)
		if a > b {
			a, b = b, a
		}
		qa, qb := s.Quantile(a), s.Quantile(b)
		return qa <= qb && qa >= s.Min() && qb <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean lies within [Min, Max].
func TestQuickMeanBounded(t *testing.T) {
	f := func(raw []float64) bool {
		var s Sample
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Keep magnitudes sane to avoid float overflow artifacts.
			if math.Abs(x) > 1e12 {
				continue
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		return s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: FractionAtMost agrees with a direct count.
func TestQuickFractionAtMost(t *testing.T) {
	f := func(raw []float64, x float64) bool {
		if math.IsNaN(x) {
			x = 0
		}
		var s Sample
		var clean []float64
		for _, v := range raw {
			if math.IsNaN(v) {
				continue
			}
			s.Add(v)
			clean = append(clean, v)
		}
		if len(clean) == 0 {
			return true
		}
		sort.Float64s(clean)
		cnt := 0
		for _, v := range clean {
			if v <= x {
				cnt++
			}
		}
		want := float64(cnt) / float64(len(clean))
		return almostEqual(s.FractionAtMost(x), want, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSampleAdd(b *testing.B) {
	// Reset periodically so memory stays bounded as b.N grows: the metric
	// of interest is the steady-state Add cost, not slice reallocation at
	// gigabyte sizes.
	var s Sample
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i&(1<<20-1) == 0 {
			s = Sample{}
		}
		s.Add(float64(i))
	}
}
