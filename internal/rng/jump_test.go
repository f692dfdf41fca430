package rng

import (
	"testing"
)

// jumpBy is the reference jump: the XOR of the states T^i·s over the
// coefficients of q, stepping a copy of s 256 times.
func jumpBy(s Stream, q poly) Stream {
	var acc Stream
	for i := 0; i < 256; i++ {
		if q[i/64]>>(i%64)&1 != 0 {
			acc.s0 ^= s.s0
			acc.s1 ^= s.s1
			acc.s2 ^= s.s2
			acc.s3 ^= s.s3
		}
		s.Uint64()
	}
	return acc
}

func steps(s Stream, d uint64) Stream {
	for ; d > 0; d-- {
		s.Uint64()
	}
	return s
}

// TestCharPoly checks the characteristic polynomial Berlekamp–Massey
// finds: its degree is 256, x^(2²⁵⁶) ≡ x modulo it (so x has order
// dividing 2²⁵⁶−1, the generator's period), and x^(2¹²⁸) and x^(2¹⁹²)
// modulo it are the jump polynomials xoshiro256**'s authors publish for
// its jump() and long_jump().
func TestCharPoly(t *testing.T) {
	if _, l := minimalPolynomial(); l != 256 {
		t.Fatalf("Berlekamp–Massey found a recurrence of degree %d, want 256", l)
	}
	xPowMod(1) // fills charPoly
	q := poly{2}
	for i := 1; i <= 256; i++ {
		q = sqrMod(q)
		switch i {
		case 128:
			if want := (poly{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}); q != want {
				t.Fatalf("x^(2^128) mod P = %#x, want the published jump %#x", q, want)
			}
		case 192:
			if want := (poly{0x76e15d3efefdcbbf, 0xc5004e441c522fb3, 0x77710069854ee241, 0x39109bb02acbe635}); q != want {
				t.Fatalf("x^(2^192) mod P = %#x, want the published long jump %#x", q, want)
			}
		}
	}
	if q != (poly{2}) {
		t.Fatalf("x^(2^256) mod P = %#x, want x", q)
	}
}

// TestJumpAhead checks x^D mod P as a jump: against D plain steps up to
// 2²⁰ (2¹⁴ with -short), and beyond, up to 2⁴⁰, by composing jumps whose
// parts the plain steps cover: a jump by D followed by k steps is the
// jump by D+k, and jumps by D₁ and D₂ make the jump by D₁+D₂. mulMod is
// checked against multiplying by x one power at a time.
func TestJumpAhead(t *testing.T) {
	s0 := *New(41)
	limit := uint64(1) << 20
	if testing.Short() {
		limit = 1 << 14
	}
	ds := []uint64{0, 1, 2, 3, 63, 64, 65, 255, 256, 257, 1000, 4096, 12345}
	for d := uint64(1) << 14; d <= limit; d <<= 3 {
		ds = append(ds, d-1, d+7)
	}
	for _, d := range ds {
		if got, want := jumpBy(s0, xPowMod(d)), steps(s0, d); got != want {
			t.Fatalf("jump by %d: %v, plain steps %v", d, got, want)
		}
	}
	gen := New(43)
	for i := 0; i < 20; i++ {
		d := gen.Uint64() >> (24 + gen.Intn(41)) // up to 2⁴⁰
		k := uint64(gen.Intn(300))
		if got, want := jumpBy(s0, xPowMod(d+k)), steps(jumpBy(s0, xPowMod(d)), k); got != want {
			t.Fatalf("jump by %d+%d: %v, jump by %d then %d steps: %v", d, k, got, d, k, want)
		}
		d2 := gen.Uint64() >> 24
		if got, want := jumpBy(s0, xPowMod(d+d2)), jumpBy(jumpBy(s0, xPowMod(d)), xPowMod(d2)); got != want {
			t.Fatalf("jump by %d+%d: %v, two jumps: %v", d, d2, got, want)
		}
		if got, want := mulMod(xPowMod(d), xPowMod(k)), xPowMod(d+k); got != want {
			t.Fatalf("x^%d · x^%d = %#x, want x^%d = %#x", d, k, got, d+k, want)
		}
	}
}

// laneTableDs are lane lengths from one word to a million.
var laneTableDs = []uint64{1, 2, 48, 282 * 48, 1000003}

// TestLaneTable checks the lane tables: lane j of the table for lanes d
// words apart starts j·d words ahead, whether the table was computed or
// came from the cache.
func TestLaneTable(t *testing.T) {
	s := *New(47)
	for _, d := range laneTableDs {
		var fresh, cached laneTable
		fillLaneTable(d, &fresh)
		lookupLaneTable(d, &cached)
		lookupLaneTable(d, &cached)
		if fresh != cached {
			t.Fatalf("d=%d: cached lane table differs from a fresh one", d)
		}
		for j := 0; j < 8; j++ {
			var q poly
			for i := range fresh {
				q[i/64] |= uint64(fresh[i]>>j&1) << (i % 64)
			}
			want := jumpBy(s, xPowMod(uint64(j)*d))
			if d <= 48 {
				want = steps(s, uint64(j)*d)
			}
			if got := jumpBy(s, q); got != want {
				t.Fatalf("d=%d lane %d: table starts at %v, want %v", d, j, got, want)
			}
		}
	}
}

// BenchmarkLaneTableMiss times the lane table for a lane length not seen
// before: x^d mod P and its six multiples, for E18's largest quick clique.
func BenchmarkLaneTableMiss(b *testing.B) {
	xPowMod(1)
	var tab laneTable
	for i := 0; i < b.N; i++ {
		fillLaneTable(282*48+uint64(i), &tab)
	}
}
