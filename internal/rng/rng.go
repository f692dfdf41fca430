package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 advances the SplitMix64 state and returns the next output.
// It is used to seed and to derive independent streams; it is also a fine
// tiny generator in its own right for hashing-style uses.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a xoshiro256** generator. The zero value is not a valid
// generator; obtain streams from New or NewStream.
//
// The state is four scalar fields rather than an array: that keeps Uint64
// within the compiler's inlining budget, and it lets the per-edge kernels
// (appendSchedule, appendChain) load the state into local variables once
// per call and step it there. The 8-lane kernels read and write the four
// fields in this order.
type Stream struct {
	s0, s1, s2, s3 uint64
}

// New returns a Stream seeded from the given seed. Distinct seeds give
// (for all practical purposes) independent streams.
func New(seed uint64) *Stream {
	st := &Stream{}
	st.Reseed(seed)
	return st
}

// NewStream returns the stream for sub-experiment (e.g. Monte-Carlo trial)
// index idx under the given base seed. Streams for different (seed, idx)
// pairs are independent, which makes parallel trial execution deterministic:
// the work scheduler cannot affect which numbers a trial sees.
func NewStream(seed uint64, idx uint64) *Stream {
	// Mix the index through SplitMix64 twice so that consecutive indices
	// land far apart in seed space.
	mix := seed
	_ = SplitMix64(&mix)
	mix ^= 0x6a09e667f3bcc909 * (idx + 1)
	st := &Stream{}
	st.Reseed(SplitMix64(&mix))
	return st
}

// Reseed resets the stream state from a single seed value.
func (r *Stream) Reseed(seed uint64) {
	sm := seed
	r.s0 = SplitMix64(&sm)
	r.s1 = SplitMix64(&sm)
	r.s2 = SplitMix64(&sm)
	r.s3 = SplitMix64(&sm)
	// xoshiro256** is ill-defined on the all-zero state; SplitMix64 cannot
	// produce four zero outputs in a row, but keep the guard for clarity.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 uniformly random bits.
//
// The step is written out here rather than delegated to next, so that
// Uint64 stays well inside the inlining budget.
func (r *Stream) Uint64() uint64 {
	x := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return x
}

// next is the same xoshiro256** step on a state passed by value: it
// returns the output word and the next state. The bulk kernels call it on
// a local copy of the stream, which the compiler keeps in registers.
func (s Stream) next() (uint64, Stream) {
	x := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return x, s
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
// The implementation is Lemire's multiply-shift with rejection, which is
// unbiased and branch-cheap.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly random uint64 in [0, n). It panics if n == 0.
func (r *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniformly random float64 in [0, 1) with 53 bits of
// precision.
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p. No non-test code draws with
// it: it is the one-draw reference the coin kernels (coin_test.go) and
// dist.Binomial (TestBinomialMatchesBernoulli) are checked against.
func (r *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n) as a fresh slice.
// BenchmarkKernelDiameterRegimes draws its source orders with it.
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function (Fisher–Yates).
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct uniformly random values from [0, n) in
// selection order. It panics if k > n or k < 0. For small k relative to n it
// uses rejection against a set; otherwise a partial Fisher–Yates.
func (r *Stream) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample with k out of range")
	}
	if k == 0 {
		return nil
	}
	if k*3 < n {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			v := r.Intn(n)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
		return out
	}
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k:k]
}

// NormFloat64 returns a standard normal variate via the polar
// (Marsaglia) method. Only tests draw with it: the stats and sweep tests'
// normal observations.
func (r *Stream) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}
