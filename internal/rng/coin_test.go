package rng

import (
	"math"
	"slices"
	"testing"
)

// coinProbs are the boundary probabilities of the Coin contract: multiples
// of 2⁻⁵³ (where a cut falls exactly on a draw) and their neighbours one
// unit in the last place away, the extremes of (0,1), the values that draw
// nothing, and NaN.
func coinProbs() []float64 {
	const ulp = 1.0 / (1 << 53)
	ps := []float64{
		0, math.Copysign(0, -1), 1, 5e-324, 1 - ulp, 0.5 - ulp, math.NaN(),
		-1, 2, math.Inf(1), math.Inf(-1), 0.3, 0.05, 1.0 / 3,
	}
	for _, k := range []float64{1, 2, 3, 1 << 20, 1<<52 - 1, 1 << 52, 1<<52 + 1, 1<<53 - 2, 1<<53 - 1, 4503599627370497} {
		p := k * ulp
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 1))
	}
	return ps
}

// wordFloat is Float64's map from one word to [0,1).
func wordFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// TestCoinCutBoundary checks the compiled cut against Float64() < p on
// both sides of the boundary: the draw k = cut−1 is the largest that comes
// up heads, and k = cut the smallest that comes up tails.
func TestCoinCutBoundary(t *testing.T) {
	// wordFloat must be Float64's map for the check below to mean anything.
	a, b := New(3), New(3)
	for i := 0; i < 1000; i++ {
		if x, f := a.Uint64(), b.Float64(); wordFloat(x) != f {
			t.Fatalf("wordFloat(%#x) = %v, Float64 gave %v", x, wordFloat(x), f)
		}
	}
	for _, p := range coinProbs() {
		c := NewCoin(p)
		if !c.draw {
			continue
		}
		if c.cut > 1<<53 {
			t.Fatalf("p=%v: cut %d above 2^53", p, c.cut)
		}
		if c.cut > 0 {
			if x := (c.cut - 1) << 11; !(wordFloat(x) < p) {
				t.Fatalf("p=%v: draw cut-1=%d is heads for the coin but Float64()=%v is not below p", p, c.cut-1, wordFloat(x))
			}
		}
		if c.cut < 1<<53 {
			// The low 11 bits do not reach the draw; set them all to check
			// that the comparison ignores them.
			if x := c.cut<<11 | (1<<11 - 1); wordFloat(x) < p {
				t.Fatalf("p=%v: draw cut=%d is tails for the coin but Float64()=%v is below p", p, c.cut, wordFloat(x))
			}
		}
	}
}

// TestCoinMatchesBernoulli flips each boundary coin against Bernoulli on
// twin streams: the outcomes must agree, and so must the streams after,
// so the coin draws exactly when Bernoulli does.
func TestCoinMatchesBernoulli(t *testing.T) {
	for _, p := range coinProbs() {
		a, b := New(11), New(11)
		for i := 0; i < 200; i++ {
			if got, want := a.Flip(NewCoin(p)), b.Bernoulli(p); got != want {
				t.Fatalf("p=%v flip %d: coin %v, Bernoulli %v", p, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("p=%v: coin and Bernoulli consumed the stream differently", p)
		}
	}
	// The same, word by word: no draw for p <= 0 or p >= 1, one for NaN.
	r := New(5)
	before := *r
	r.Flip(NewCoin(0))
	r.Flip(NewCoin(1))
	r.Flip(NewCoin(-0.5))
	if *r != before {
		t.Fatal("coins with p <= 0 or p >= 1 consumed the stream")
	}
	r.Flip(NewCoin(math.NaN()))
	if *r == before {
		t.Fatal("a NaN coin must draw once, as Bernoulli does")
	}
}

// randomCoins draws a schedule that mixes drawing coins with coins that
// draw nothing.
func randomCoins(r *Stream, n int) []Coin {
	coins := make([]Coin, n)
	for i := range coins {
		switch r.Intn(6) {
		case 0:
			coins[i] = NewCoin(0)
		case 1:
			coins[i] = NewCoin(1)
		default:
			coins[i] = NewCoin(r.Float64())
		}
	}
	return coins
}

func TestAppendScheduleMatchesFlips(t *testing.T) {
	gen := New(21)
	for trial := 0; trial < 200; trial++ {
		coins := randomCoins(gen, gen.Intn(70))
		prefix := []int32{9, 9}
		a, b := New(uint64(trial)), New(uint64(trial))
		got := a.appendSchedule(slices.Clone(prefix), coins)
		want := slices.Clone(prefix)
		for i, c := range coins {
			if b.Flip(c) {
				want = append(want, int32(i+1))
			}
		}
		if !slices.Equal(got, want) || a.Uint64() != b.Uint64() {
			t.Fatalf("trial %d: appendSchedule %v, Flip loop %v", trial, got, want)
		}
	}
}

// chainFlips is the reference for appendChain: the chain run as the Flip
// loop its doc comment gives.
func chainFlips(r *Stream, dst []int32, a int, start, leave, enter Coin) []int32 {
	on := r.Flip(start)
	for t := 1; t <= a; t++ {
		if on {
			dst = append(dst, int32(t))
		}
		if t < a {
			if on {
				on = !r.Flip(leave)
			} else {
				on = r.Flip(enter)
			}
		}
	}
	return dst
}

// headsFlips is the reference for CountHeads.
func headsFlips(r *Stream, c Coin, n int) int {
	k := 0
	for i := 0; i < n; i++ {
		if r.Flip(c) {
			k++
		}
	}
	return k
}

// checkChain draws one chain with appendChain, and with each of its two
// kernels whenever both transition coins draw, and compares every result
// and the stream's next word with chainFlips on a twin stream.
func checkChain(t *testing.T, seed uint64, a int, start, leave, enter Coin) {
	t.Helper()
	prefix := []int32{5}
	ref := New(seed)
	want := chainFlips(ref, slices.Clone(prefix), a, start, leave, enter)
	next := ref.Uint64()
	r := New(seed)
	if got := r.appendChain(slices.Clone(prefix), a, start, leave, enter); !slices.Equal(got, want) || r.Uint64() != next {
		t.Fatalf("seed %d a=%d coins %v %v %v: appendChain %v, Flip loop %v", seed, a, start, leave, enter, got, want)
	}
	if a < 1 || !leave.draw || !enter.draw {
		return
	}
	for _, k := range []struct {
		name string
		run  func(Stream, []int32, bool, uint64, uint64) (int, Stream)
	}{{"chainRuns", chainRuns}, {"chainSwitch", chainSwitch}} {
		r := New(seed)
		on := r.Flip(start)
		out := make([]int32, a)
		n, s := k.run(*r, out, on, leave.cut, enter.cut)
		if got := append(slices.Clone(prefix), out[:n]...); !slices.Equal(got, want) || s.Uint64() != next {
			t.Fatalf("seed %d a=%d coins %v %v %v: %s %v, Flip loop %v", seed, a, start, leave, enter, k.name, got, want)
		}
	}
}

func TestAppendChainMatchesFlips(t *testing.T) {
	gen := New(23)
	for trial := 0; trial < 300; trial++ {
		cs := randomCoins(gen, 3)
		a := gen.Intn(40) - 1 // includes a = -1 and a = 0, which still flip start
		checkChain(t, uint64(trial), a, cs[0], cs[1], cs[2])
	}
}

// TestAppendChainKernelChoice runs chains whose smaller transition
// probability sits on both sides of the 1/32 that picks chainRuns and on
// it, against starts that draw nothing, the extreme drawing cuts 1 and
// 2⁵³−1, and the shortest lifetimes.
func TestAppendChainKernelChoice(t *testing.T) {
	const ulp = 1.0 / (1 << 53)
	if NewCoin(1.0/32).cut != rareSwitch {
		t.Fatalf("NewCoin(1/32) has cut %d, want rareSwitch %d", NewCoin(1.0/32).cut, rareSwitch)
	}
	rare := []float64{ulp, 1e-4, 1.0 / 64, math.Nextafter(1.0/32, 0), 1.0 / 32}
	often := []float64{math.Nextafter(1.0/32, 1), 0.04, 0.25, 0.5, 0.9, 1 - ulp}
	starts := []Coin{NewCoin(0), NewCoin(1), NewCoin(ulp), NewCoin(0.5), NewCoin(1 - ulp)}
	seed := uint64(0)
	for _, ps := range [][2][]float64{{rare, rare}, {rare, often}, {often, rare}, {often, often}} {
		for _, pl := range ps[0] {
			for _, pe := range ps[1] {
				leave, enter := NewCoin(pl), NewCoin(pe)
				if got, want := min(leave.cut, enter.cut) <= rareSwitch, min(pl, pe) <= 1.0/32; got != want {
					t.Fatalf("leave %v enter %v: run-length choice %v, want %v", pl, pe, got, want)
				}
				for _, start := range starts {
					for _, a := range []int{0, 1, 2, 3, 64, 300} {
						seed++
						checkChain(t, seed, a, start, leave, enter)
					}
				}
			}
		}
	}
}

func TestCountHeadsMatchesFlips(t *testing.T) {
	ps := []float64{0, 5e-324, 0.5, 1 - 1.0/(1<<53), 1, math.NaN()}
	for _, p := range ps {
		for _, n := range []int{0, 1, 95, 1000} {
			a, b := New(uint64(n)+3), New(uint64(n)+3)
			c := NewCoin(p)
			if got, want := a.CountHeads(c, n), headsFlips(b, c, n); got != want || a.Uint64() != b.Uint64() {
				t.Fatalf("p=%v n=%d: CountHeads %d, Flip loop %d", p, n, got, want)
			}
		}
	}
}

// FuzzCoinKernels checks appendChain and CountHeads against their Flip
// loops for arbitrary probabilities, lifetimes and seeds.
func FuzzCoinKernels(f *testing.F) {
	f.Add(uint64(1), 128, 0.05, 0.25, 0.25*0.05/0.95)
	f.Add(uint64(2), 128, 0.5, 0.5, 0.5)
	f.Add(uint64(3), 2, 1.0, 1.0/32, 1.0)
	f.Add(uint64(4), 95, math.NaN(), 5e-324, 1-1.0/(1<<53))
	f.Fuzz(func(t *testing.T, seed uint64, a int, ps, pl, pe float64) {
		a %= 1 << 12
		start, leave, enter := NewCoin(ps), NewCoin(pl), NewCoin(pe)
		checkChain(t, seed, a, start, leave, enter)
		for _, c := range []Coin{start, leave, enter} {
			r, ref := New(seed), New(seed)
			if got, want := r.CountHeads(c, a), headsFlips(ref, c, a); got != want || r.Uint64() != ref.Uint64() {
				t.Fatalf("seed %d n=%d coin %v: CountHeads %d, Flip loop %d", seed, a, c, got, want)
			}
		}
	})
}

// BenchmarkAppendChain draws one 128-slot chain per op at the sweep's
// pi = 0.05, runlen 4 (chainRuns) and at pi = 0.5, runlen 2 (chainSwitch).
func BenchmarkAppendChain(b *testing.B) {
	for _, tc := range []struct {
		name     string
		pi, beta float64
	}{{"pi0.05-runlen4", 0.05, 0.25}, {"pi0.5-runlen2", 0.5, 0.5}} {
		b.Run(tc.name, func(b *testing.B) {
			r := New(1)
			start, leave, enter := NewCoin(tc.pi), NewCoin(tc.beta), NewCoin(tc.beta*tc.pi/(1-tc.pi))
			var dst []int32
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = r.appendChain(dst[:0], 128, start, leave, enter)
			}
		})
	}
}

// BenchmarkCountHeads counts 95 flips of a fair coin per op, E12's
// binomial label on a 96-slot lifetime.
func BenchmarkCountHeads(b *testing.B) {
	r, c := New(1), NewCoin(0.5)
	k := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k += r.CountHeads(c, 95)
	}
	if k < 0 {
		b.Fatal(k)
	}
}

func BenchmarkAppendSchedule(b *testing.B) {
	r := New(1)
	coins := make([]Coin, 128)
	for i := range coins {
		coins[i] = NewCoin(0.02 + 0.28*float64(i)/127)
	}
	var dst []int32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = r.appendSchedule(dst[:0], coins)
	}
}
