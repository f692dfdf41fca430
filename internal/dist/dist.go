package dist

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Distribution is a label law over {1,…,Lifetime()}.
type Distribution interface {
	// Sample draws one label in {1,…,Lifetime()} using only the given
	// stream, so assignments built from it stay deterministic per seed.
	Sample(r *rng.Stream) int
	// Lifetime is the largest label the law can produce (the paper's a).
	Lifetime() int
	// Name is a short identifier used in table rows.
	Name() string
	// PMF returns the analytic probability mass function as a fresh slice:
	// entry k-1 is P(label = k) for k in {1,…,Lifetime()}. The conformance
	// suite tests Sample against it by chi-square goodness of fit.
	PMF() []float64
}

// Uniform is the UNI-CASE law: every label in {1,…,a} equally likely.
type Uniform struct{ a int }

// NewUniform returns the uniform law on {1,…,a}.
func NewUniform(a int) Uniform {
	checkLifetime(a)
	return Uniform{a}
}

func (u Uniform) Sample(r *rng.Stream) int { return 1 + r.Intn(u.a) }
func (u Uniform) Lifetime() int            { return u.a }
func (u Uniform) Name() string             { return "uniform" }

// SampleInto fills dst with independent draws, bit-identical to len(dst)
// successive Sample calls. It exists for the batched trial engine's hot
// resample loop: a direct fill skips the per-label interface dispatch
// assign.FromDistributionInto otherwise pays (it detects the method by
// type assertion, so any law may opt in).
func (u Uniform) SampleInto(dst []int32, r *rng.Stream) {
	for i := range dst {
		dst[i] = int32(1 + r.Intn(u.a))
	}
}

func (u Uniform) PMF() []float64 {
	pmf := make([]float64, u.a)
	for k := range pmf {
		pmf[k] = 1 / float64(u.a)
	}
	return pmf
}

// Binomial shifts a Binomial(a−1, p) draw to {1,…,a}: the label mass peaks
// near p·a, modelling links that mostly become available mid-lifetime.
type Binomial struct {
	p    float64
	a    int
	coin rng.Coin // p compiled once for Sample's a−1 flips
}

// NewBinomial returns the shifted binomial law 1 + Bin(a−1, p).
func NewBinomial(p float64, a int) Binomial {
	checkLifetime(a)
	checkProb(p)
	return Binomial{p, a, rng.NewCoin(p)}
}

// Sample counts the heads of a−1 flips of p in one rng.CountHeads call,
// which draws the same words and the same heads as a−1 Stream.Bernoulli(p)
// calls.
func (b Binomial) Sample(r *rng.Stream) int { return 1 + r.CountHeads(b.coin, b.a-1) }
func (b Binomial) Lifetime() int            { return b.a }
func (b Binomial) Name() string             { return fmt.Sprintf("binom(p=%.3g)", b.p) }

func (b Binomial) PMF() []float64 {
	// P(label = k) = C(a−1, k−1) p^{k−1} (1−p)^{a−k}, computed in log space
	// so large lifetimes stay finite.
	pmf := make([]float64, b.a)
	n := float64(b.a - 1)
	lgN, _ := math.Lgamma(n + 1)
	for k := 1; k <= b.a; k++ {
		j := float64(k - 1)
		lgK, _ := math.Lgamma(j + 1)
		lgNK, _ := math.Lgamma(n - j + 1)
		logp := lgN - lgK - lgNK
		if b.p > 0 {
			logp += j * math.Log(b.p)
		} else if j > 0 {
			pmf[k-1] = 0
			continue
		}
		if b.p < 1 {
			logp += (n - j) * math.Log(1-b.p)
		} else if n-j > 0 {
			pmf[k-1] = 0
			continue
		}
		pmf[k-1] = math.Exp(logp)
	}
	return pmf
}

// Geometric is the geometric law with success probability p truncated to
// {1,…,a}: mass concentrates on the earliest labels, the "eager links"
// regime. Truncation folds the tail onto a, keeping Sample O(1).
type Geometric struct {
	p float64
	a int
}

// NewGeometric returns the truncated geometric law on {1,…,a}.
func NewGeometric(p float64, a int) Geometric {
	checkLifetime(a)
	checkProb(p)
	return Geometric{p, a}
}

func (g Geometric) Sample(r *rng.Stream) int {
	if g.p == 1 {
		return 1
	}
	// Inversion: k = 1 + ⌊ln U / ln(1−p)⌋ is Geometric(p) on {1,2,…}.
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	// Below p ≈ 1.1e-16, 1−p rounds to 1 and its log to 0; Log1p keeps
	// those p apart from 0 without moving any other p's draws.
	lq := math.Log(1 - g.p)
	if lq == 0 {
		lq = math.Log1p(-g.p)
	}
	// The ratio is positive, but for tiny p too large for an int: fold the
	// tail onto a before converting.
	x := math.Log(u) / lq
	if x >= float64(g.a-1) {
		return g.a
	}
	return 1 + int(x)
}
func (g Geometric) Lifetime() int { return g.a }
func (g Geometric) Name() string  { return fmt.Sprintf("geom(p=%.3g)", g.p) }

func (g Geometric) PMF() []float64 {
	// P(label = k) = p(1−p)^{k−1} for k < a; the folded tail (1−p)^{a−1}
	// sits on a.
	pmf := make([]float64, g.a)
	q := 1.0
	for k := 1; k < g.a; k++ {
		pmf[k-1] = g.p * q
		q *= 1 - g.p
	}
	pmf[g.a-1] = q
	return pmf
}

// Zipf is the power law P(k) ∝ k^(−s) on {1,…,a}: heavy early mass with a
// polynomial (rather than exponential) tail.
type Zipf struct {
	s   float64
	a   int
	cdf []float64
}

// NewZipf returns the Zipf law with exponent s > 0 on {1,…,a}.
func NewZipf(s float64, a int) Zipf {
	checkLifetime(a)
	if s <= 0 || math.IsNaN(s) {
		panic("dist: zipf exponent must be > 0")
	}
	cdf := make([]float64, a)
	sum := 0.0
	for k := 1; k <= a; k++ {
		sum += math.Pow(float64(k), -s)
		cdf[k-1] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[a-1] = 1 // guard against rounding
	return Zipf{s, a, cdf}
}

func (z Zipf) Sample(r *rng.Stream) int {
	u := r.Float64()
	// Binary search for the first k with cdf[k−1] ≥ u.
	lo, hi := 0, z.a-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] >= u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo + 1
}
func (z Zipf) Lifetime() int { return z.a }
func (z Zipf) Name() string  { return fmt.Sprintf("zipf(s=%.3g)", z.s) }

func (z Zipf) PMF() []float64 {
	pmf := make([]float64, z.a)
	prev := 0.0
	for k := range pmf {
		pmf[k] = z.cdf[k] - prev
		prev = z.cdf[k]
	}
	return pmf
}

func checkLifetime(a int) {
	if a < 1 {
		panic("dist: lifetime must be >= 1")
	}
}

func checkProb(p float64) {
	if !(p > 0 && p <= 1) {
		panic("dist: probability must be in (0,1]")
	}
}
