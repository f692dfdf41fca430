package dist

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// sampleMany draws n samples and returns their histogram plus the mean.
func sampleMany(t *testing.T, d Distribution, n int) ([]int, float64) {
	t.Helper()
	hist := make([]int, d.Lifetime()+1)
	sum := 0.0
	r := rng.New(42)
	for i := 0; i < n; i++ {
		k := d.Sample(r)
		if k < 1 || k > d.Lifetime() {
			t.Fatalf("%s sampled %d outside {1,…,%d}", d.Name(), k, d.Lifetime())
		}
		hist[k]++
		sum += float64(k)
	}
	return hist, sum / float64(n)
}

func TestRangesAndNames(t *testing.T) {
	for _, d := range []Distribution{
		NewUniform(20),
		NewBinomial(0.5, 20),
		NewGeometric(0.1, 20),
		NewZipf(1.1, 20),
	} {
		if d.Name() == "" {
			t.Fatal("empty name")
		}
		if d.Lifetime() != 20 {
			t.Fatalf("%s lifetime %d", d.Name(), d.Lifetime())
		}
		sampleMany(t, d, 2000)
	}
}

func TestUniformMean(t *testing.T) {
	_, mean := sampleMany(t, NewUniform(100), 20000)
	if math.Abs(mean-50.5) > 2 {
		t.Fatalf("uniform mean %v, want ≈50.5", mean)
	}
}

func TestBinomialPeaksMid(t *testing.T) {
	_, mean := sampleMany(t, NewBinomial(0.5, 101), 5000)
	if math.Abs(mean-51) > 2 {
		t.Fatalf("binomial mean %v, want ≈51", mean)
	}
}

func TestGeometricConcentratesEarly(t *testing.T) {
	hist, mean := sampleMany(t, NewGeometric(0.25, 50), 20000)
	if mean > 6 {
		t.Fatalf("geometric mean %v, want ≈4", mean)
	}
	if hist[1] <= hist[2] || hist[2] <= hist[3] {
		t.Fatalf("geometric mass not decreasing: %v", hist[:5])
	}
}

func TestGeometricPOne(t *testing.T) {
	if k := NewGeometric(1, 10).Sample(rng.New(1)); k != 1 {
		t.Fatalf("geom(p=1) sampled %d", k)
	}
}

// TestGeometricTinyP draws p so small that 1−p rounds to 1: the law puts
// all but a sliver of its mass on the lifetime a, and so must Sample.
func TestGeometricTinyP(t *testing.T) {
	for _, p := range []float64{1e-16, 1e-17, 1e-300, 5e-324} {
		g := NewGeometric(p, 96)
		if pmf := g.PMF(); pmf[95] < 1-1e-12 {
			t.Fatalf("p=%v: PMF puts %v on a, want ≈1", p, pmf[95])
		}
		r := rng.New(1)
		for i := 0; i < 1000; i++ {
			if k := g.Sample(r); k != 96 {
				t.Fatalf("p=%v draw %d: label %d, want the lifetime 96", p, i, k)
			}
		}
	}
}

// TestGeometricPinned pins the first draws of E12's two geometric laws
// (a = 96, p = 2/a and 8/a) and the stream's next word.
func TestGeometricPinned(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		want []int
	}{
		{2, []int{96, 35, 47, 56, 1, 28, 25, 32, 91, 33, 96, 25, 33, 7, 16, 10, 88, 11, 62, 4, 1, 13, 20, 50}},
		{8, []int{26, 9, 12, 14, 1, 7, 6, 8, 22, 8, 31, 6, 8, 2, 4, 3, 22, 3, 15, 1, 1, 4, 5, 13}},
	} {
		g, r := NewGeometric(tc.q/96, 96), rng.New(2014)
		for i, want := range tc.want {
			if k := g.Sample(r); k != want {
				t.Fatalf("p=%v/96 draw %d: label %d, pinned %d", tc.q, i, k, want)
			}
		}
		if x := r.Uint64(); x != 0xc7c7d7c32a8541ec {
			t.Fatalf("p=%v/96: next word %#x, pinned 0xc7c7d7c32a8541ec", tc.q, x)
		}
	}
}

// TestBinomialMatchesBernoulli checks Sample against the per-flip
// Bernoulli loop it replaced, label for label and word for word.
func TestBinomialMatchesBernoulli(t *testing.T) {
	for _, p := range []float64{5e-324, 0.3, 0.5, 1 - 1.0/(1<<53), 1} {
		for _, a := range []int{1, 2, 96, 257} {
			b := NewBinomial(p, a)
			r, ref := rng.New(uint64(a)), rng.New(uint64(a))
			for i := 0; i < 50; i++ {
				want := 1
				for j := 0; j < a-1; j++ {
					if ref.Bernoulli(p) {
						want++
					}
				}
				if got := b.Sample(r); got != want {
					t.Fatalf("p=%v a=%d draw %d: Sample %d, Bernoulli loop %d", p, a, i, got, want)
				}
			}
			if r.Uint64() != ref.Uint64() {
				t.Fatalf("p=%v a=%d: Sample and the Bernoulli loop consumed the stream differently", p, a)
			}
		}
	}
}

func TestZipfHeavyHead(t *testing.T) {
	hist, _ := sampleMany(t, NewZipf(1.5, 50), 20000)
	if hist[1] < hist[2] || hist[1] < 3*hist[10] {
		t.Fatalf("zipf head not heavy: 1→%d 2→%d 10→%d", hist[1], hist[2], hist[10])
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	for _, d := range []Distribution{
		NewUniform(30), NewBinomial(0.3, 30), NewGeometric(0.2, 30), NewZipf(1.2, 30),
	} {
		a, b := rng.New(7), rng.New(7)
		for i := 0; i < 100; i++ {
			if x, y := d.Sample(a), d.Sample(b); x != y {
				t.Fatalf("%s not deterministic at draw %d: %d vs %d", d.Name(), i, x, y)
			}
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"uniform-zero": func() { NewUniform(0) },
		"binom-p0":     func() { NewBinomial(0, 10) },
		"geom-p2":      func() { NewGeometric(2, 10) },
		"zipf-s0":      func() { NewZipf(0, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
