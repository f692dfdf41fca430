package rng

import (
	"math/bits"
	"sync"
)

// The jump-ahead behind the bulk kernels' lanes. xoshiro256** steps its
// state by a linear map T over GF(2)²⁵⁶, so T^D, the map that skips D
// words, is q(T) for q = x^D mod P, where P is T's characteristic
// polynomial: the state D words ahead is the XOR of the states T^i·s for
// which q has the coefficient of x^i.

// poly is a polynomial over GF(2) of degree below 256: bit i%64 of word
// i/64 is the coefficient of x^i.
type poly [4]uint64

// charPoly holds P = x²⁵⁶ + low and the tables that reduce modulo it. It
// is filled once, on the first jump.
var charPoly struct {
	once sync.Once
	low  poly
	// red[k][v] is v(x)·x^(256+4k) mod P for a nibble v: folding the
	// high half of a 512-bit product takes one lookup per nibble.
	red [64][16]poly
}

// initCharPoly finds P by Berlekamp–Massey and builds the reduction
// tables.
func initCharPoly() {
	c, l := minimalPolynomial()
	if l != 256 {
		panic("rng: xoshiro256** recurrence is not of degree 256")
	}
	// BM returns the connection polynomial C with C(0) = 1, whose
	// reciprocal x²⁵⁶·C(1/x) is P: the coefficient of x^i in P is c_{256−i}.
	var low poly
	for i := 0; i < 256; i++ {
		low[i/64] |= (c[(256-i)/64] >> ((256 - i) % 64) & 1) << (i % 64)
	}
	charPoly.low = low
	// r = x^(256+i) mod P, starting from x²⁵⁶ ≡ low.
	r := low
	var pow [256]poly
	for i := range pow {
		pow[i] = r
		r = mulX(r)
	}
	for k := range charPoly.red {
		for v := 1; v < 16; v++ {
			b := bits.TrailingZeros(uint(v))
			charPoly.red[k][v] = xorPoly(charPoly.red[k][v&(v-1)], pow[4*k+b])
		}
	}
}

// minimalPolynomial runs Berlekamp–Massey over 512 steps of the low bit
// of s0 and returns the connection polynomial (bit i of the 320-bit
// value is the coefficient of x^i) and its length L. Any non-zero linear
// read-out of the state obeys T's minimal polynomial, and
// xoshiro256**'s is its full characteristic polynomial of degree 256,
// which TestCharPoly checks.
func minimalPolynomial() ([5]uint64, int) {
	s := New(1)
	c, b := [5]uint64{1}, [5]uint64{1}
	var win [5]uint64 // bit i is the read-out i steps back
	l, k := 0, 1
	for n := 0; n < 512; n++ {
		win = shl5(win, 1)
		win[0] |= s.s0 & 1
		s.Uint64()
		d := 0
		for i := range c {
			d += bits.OnesCount64(c[i] & win[i])
		}
		if d&1 == 0 {
			k++
			continue
		}
		t := c
		sb := shl5(b, k)
		for i := range c {
			c[i] ^= sb[i]
		}
		if 2*l <= n {
			l, b, k = n+1-l, t, 1
		} else {
			k++
		}
	}
	return c, l
}

// shl5 shifts a 320-bit value left by k < 320 bits.
func shl5(a [5]uint64, k int) [5]uint64 {
	var out [5]uint64
	w, s := k/64, uint(k%64)
	for i := 4; i >= w; i-- {
		out[i] = a[i-w] << s
		if s != 0 && i-w-1 >= 0 {
			out[i] |= a[i-w-1] >> (64 - s)
		}
	}
	return out
}

func xorPoly(a, b poly) poly {
	return poly{a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]}
}

// mulX returns a·x mod P.
func mulX(a poly) poly {
	top := -(a[3] >> 63)
	a = poly{a[0] << 1, a[1]<<1 | a[0]>>63, a[2]<<1 | a[1]>>63, a[3]<<1 | a[2]>>63}
	for i := range a {
		a[i] ^= charPoly.low[i] & top
	}
	return a
}

// reduce folds a 512-bit product, bit i of word i/64 the coefficient of
// x^i, modulo P.
func reduce(w [8]uint64) poly {
	r := poly{w[0], w[1], w[2], w[3]}
	for k := 0; k < 64; k++ {
		r = xorPoly(r, charPoly.red[k][w[4+k/16]>>(4*(k%16))&15])
	}
	return r
}

// sqrMod returns a² mod P. Squaring over GF(2) only spreads the
// coefficients: x^i becomes x^(2i).
func sqrMod(a poly) poly {
	var w [8]uint64
	for i, x := range a {
		w[2*i], w[2*i+1] = spread(uint32(x)), spread(uint32(x>>32))
	}
	return reduce(w)
}

// spread moves bit i of x to bit 2i.
func spread(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	return (v | v<<1) & 0x5555555555555555
}

// mulMod returns a·b mod P, four bits of b at a time.
func mulMod(a, b poly) poly {
	var tbl [16][5]uint64 // tbl[v] = a·v(x)
	for v := 1; v < 16; v++ {
		sh := shl5([5]uint64{a[0], a[1], a[2], a[3]}, bits.TrailingZeros(uint(v)))
		for i := range sh {
			tbl[v][i] = tbl[v&(v-1)][i] ^ sh[i]
		}
	}
	var w [8]uint64
	for k := 63; k >= 0; k-- {
		for i := 7; i > 0; i-- {
			w[i] = w[i]<<4 | w[i-1]>>60
		}
		w[0] <<= 4
		t := &tbl[b[k/16]>>(4*(k%16))&15]
		for i := range t {
			w[i] ^= t[i]
		}
	}
	return reduce(w)
}

// xPowMod returns x^d mod P, by squaring and multiplying by x.
func xPowMod(d uint64) poly {
	charPoly.once.Do(initCharPoly)
	r := poly{1}
	for i := bits.Len64(d) - 1; i >= 0; i-- {
		r = sqrMod(r)
		if d>>i&1 != 0 {
			r = mulX(r)
		}
	}
	return r
}

// laneTable is the jump to the 8 lanes' start states for lanes d words
// apart: bit j of entry i is the coefficient of x^i in x^(j·d) mod P, so
// lane j starts at the XOR of the states T^i·s over the entries i with
// bit j set. Lane 0's polynomial is 1: it starts at s itself.
type laneTable [256]byte

// fillLaneTable computes the lane table for lanes d words apart.
func fillLaneTable(d uint64, tab *laneTable) {
	var q [8]poly
	q[0] = poly{1}
	q[1] = xPowMod(d)
	for j := 2; j < 8; j++ {
		q[j] = mulMod(q[j-1], q[1])
	}
	for i := range tab {
		tab[i] = 0
		for j := range q {
			tab[i] |= byte(q[j][i/64]>>(i%64)&1) << j
		}
	}
}

// laneTables caches the lane tables of the last few distinct lane
// lengths. A labeling's lane length is fixed by its edge count and its
// words per edge, so a run meets only a handful, and every labeling
// after the first looks its table up here. The cache is a fixed array
// under a mutex, so a lookup neither allocates nor boxes its key.
var laneTables struct {
	mu   sync.Mutex
	next int
	d    [32]uint64 // 0 marks an empty slot: no lane is 0 words long
	tab  [32]laneTable
}

// lookupLaneTable copies the lane table for lanes d ≥ 1 words apart into
// tab, computing and caching it on a miss.
func lookupLaneTable(d uint64, tab *laneTable) {
	c := &laneTables
	c.mu.Lock()
	for i, k := range c.d {
		if k == d {
			*tab = c.tab[i]
			c.mu.Unlock()
			return
		}
	}
	c.mu.Unlock()
	fillLaneTable(d, tab)
	c.mu.Lock()
	c.d[c.next], c.tab[c.next] = d, *tab
	c.next = (c.next + 1) % len(c.d)
	c.mu.Unlock()
}
