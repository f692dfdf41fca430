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
		got := a.AppendSchedule(slices.Clone(prefix), coins)
		want := slices.Clone(prefix)
		for i, c := range coins {
			if b.Flip(c) {
				want = append(want, int32(i+1))
			}
		}
		if !slices.Equal(got, want) || a.Uint64() != b.Uint64() {
			t.Fatalf("trial %d: AppendSchedule %v, Flip loop %v", trial, got, want)
		}
	}
}

func TestAppendChainMatchesFlips(t *testing.T) {
	gen := New(23)
	for trial := 0; trial < 300; trial++ {
		cs := randomCoins(gen, 3)
		start, leave, enter := cs[0], cs[1], cs[2]
		a := gen.Intn(40) - 1 // includes a = -1 and a = 0, which still flip start
		prefix := []int32{5}
		ra, rb := New(uint64(trial)), New(uint64(trial))
		got := ra.AppendChain(slices.Clone(prefix), a, start, leave, enter)
		want := slices.Clone(prefix)
		on := rb.Flip(start)
		for t := 1; t <= a; t++ {
			if on {
				want = append(want, int32(t))
			}
			if t < a {
				if on {
					on = !rb.Flip(leave)
				} else {
					on = rb.Flip(enter)
				}
			}
		}
		if !slices.Equal(got, want) || ra.Uint64() != rb.Uint64() {
			t.Fatalf("trial %d (a=%d): AppendChain %v, Flip loop %v", trial, a, got, want)
		}
	}
}

func BenchmarkAppendChain(b *testing.B) {
	r := New(1)
	start, leave, enter := NewCoin(0.05), NewCoin(0.25), NewCoin(0.25*0.05/0.95)
	var dst []int32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = r.AppendChain(dst[:0], 128, start, leave, enter)
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
		dst = r.AppendSchedule(dst[:0], coins)
	}
}
