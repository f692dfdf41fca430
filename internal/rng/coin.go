package rng

import (
	"math"
	"slices"
)

// Coin is Bernoulli(p) compiled to one integer comparison. Flip(NewCoin(p))
// draws exactly when Bernoulli(p) draws and returns the same outcome from
// the same stream state.
//
// Float64 returns (x>>11)·2⁻⁵³ for the word x without rounding, and p·2⁵³
// only rescales p by a power of two, so Float64() < p holds exactly when
// x>>11 < ⌈p·2⁵³⌉. That ceiling is cut.
type Coin struct {
	// cut is the number of 53-bit draws k = x>>11 that come up heads:
	// heads iff k < cut. It is 0 for p <= 0 and NaN, 2⁵³ for p >= 1.
	cut uint64
	// draw reports whether a flip consumes a word. Like Bernoulli, a coin
	// with p <= 0 or p >= 1 draws nothing; every other p, NaN included,
	// draws once.
	draw bool
}

// NewCoin compiles the heads probability p.
func NewCoin(p float64) Coin {
	switch {
	case p <= 0:
		return Coin{}
	case p >= 1:
		return Coin{cut: 1 << 53}
	case p > 0:
		return Coin{cut: uint64(math.Ceil(p * (1 << 53))), draw: true}
	}
	// NaN: Bernoulli draws once and Float64() < NaN is false.
	return Coin{draw: true}
}

// Flip returns true with the coin's probability, consuming the stream
// exactly as Bernoulli does for the probability the coin was compiled from.
func (r *Stream) Flip(c Coin) bool {
	if !c.draw {
		return c.cut != 0
	}
	return r.Uint64()>>11 < c.cut
}

// appendSchedule appends to dst every slot t ∈ {1,…,len(coins)} whose coin
// coins[t−1] comes up heads, and returns the extended slice. It is the bulk
// form of
//
//	for i, c := range coins {
//		if r.Flip(c) {
//			dst = append(dst, int32(i+1))
//		}
//	}
//
// and consumes the stream exactly as that loop does, but keeps the state
// in local variables for the whole schedule.
func (r *Stream) appendSchedule(dst []int32, coins []Coin) []int32 {
	n := len(dst)
	dst = slices.Grow(dst, len(coins))[:n+len(coins)]
	var k int
	k, *r = schedule(*r, dst[n:], coins)
	return dst[:n+k]
}

// schedule is appendSchedule's loop on a state passed by value. It writes
// the heads slots to the front of out, which has room for every slot, and
// returns their count and the final state. Each slot is stored before its
// outcome is known and kept by adding the outcome to the count, so no
// branch depends on a coin's outcome.
func schedule(s Stream, out []int32, coins []Coin) (int, Stream) {
	k := 0
	for i, c := range coins {
		heads := c.cut >> 53 // a non-drawing coin has cut 0 or 2⁵³
		if c.draw {
			var x uint64
			x, s = s.next()
			heads = below(x, c.cut)
		}
		out[k] = int32(i + 1)
		k += int(heads)
	}
	return k, s
}

// below is the coin test x>>11 < cut as 0 or 1. Both sides are at most
// 2⁵³, so their difference wraps to a word with its top bit set exactly
// when the draw falls below the cut.
func below(x, cut uint64) uint64 { return (x>>11 - cut) >> 63 }

// appendChain appends to dst every slot t ∈ {1,…,a} at which a two-state
// on/off chain is on, and returns the extended slice. The chain starts on
// when start comes up heads; between consecutive slots an on chain turns
// off when leave comes up heads, and an off chain turns on when enter
// comes up heads. It is the bulk form of
//
//	on := r.Flip(start)
//	for t := 1; t <= a; t++ {
//		if on {
//			dst = append(dst, int32(t))
//		}
//		if t < a {
//			if on {
//				on = !r.Flip(leave)
//			} else {
//				on = r.Flip(enter)
//			}
//		}
//	}
//
// and consumes the stream exactly as that loop does. When both transition
// coins draw, which every chain with alpha < 1 and beta < 1 does, the
// state stays in local variables for the whole chain, and each slot
// compares its word with one cut, the one for the chain's current state.
// A chain that switches rarely (either transition coin at most 1/32, see
// rareSwitch) runs chainRuns, and every other chain chainSwitch. When a
// transition coin draws nothing, the kernel runs the loop above as written.
func (r *Stream) appendChain(dst []int32, a int, start, leave, enter Coin) []int32 {
	on := r.Flip(start)
	if a < 1 {
		return dst
	}
	if !leave.draw || !enter.draw {
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
	n := len(dst)
	dst = slices.Grow(dst, a)[:n+a]
	var k int
	if min(leave.cut, enter.cut) <= rareSwitch {
		k, *r = chainRuns(*r, dst[n:], on, leave.cut, enter.cut)
	} else {
		k, *r = chainSwitch(*r, dst[n:], on, leave.cut, enter.cut)
	}
	return dst[:n+k]
}

// rareSwitch is the largest transition cut, 2⁵³/32 for probability 1/32,
// at which appendChain runs chainRuns. A chain at stationarity switches
// on a fraction 2·alpha·beta/(alpha+beta) ≤ 2·min(alpha, beta) of its
// slots, so under this cut chainRuns mispredicts its branch on at most one
// slot in 16, where it still beats chainSwitch (see the package doc).
const rareSwitch = 1 << 48

// chainRuns is appendChain's loop for a chain that switches rarely, on a
// state passed by value: out has one entry per slot, on is the chain's
// state at slot 1, and leave and enter are the transition coins' cuts. It
// writes the on slots to the front of out and returns their count and the
// final state. It runs the chain one run at a time: an on run stores its
// slots, an off run only draws, and each slot's one branch is taken only
// when the chain switches, so the branch predictor is right on every slot
// but the switches. The runs are two loops rather than one loop that
// swaps the cut on a switch, because the compiler turns that swap into
// conditional moves, which measured no faster than the kernel chainRuns
// replaced.
func chainRuns(s Stream, out []int32, on bool, leave, enter uint64) (int, Stream) {
	k, t, last := 0, 1, len(out)
	for t < last {
		if on {
			for t < last {
				out[k] = int32(t)
				k++
				t++
				var x uint64
				x, s = s.next()
				if x>>11 < leave {
					on = false
					break
				}
			}
		} else {
			for t < last {
				t++
				var x uint64
				x, s = s.next()
				if x>>11 < enter {
					on = true
					break
				}
			}
		}
	}
	if on {
		out[k] = int32(last)
		k++
	}
	return k, s
}

// chainSwitch is appendChain's loop for a chain that switches often, with
// chainRuns's arguments and results. Like schedule it stores every slot
// and keeps it by adding the state to the count. The state is 0 or 1, cut
// is the transition cut for the current state, and a switch flips both by
// arithmetic, so no branch depends on the chain.
func chainSwitch(s Stream, out []int32, on bool, leave, enter uint64) (int, Stream) {
	state, cut := uint64(0), enter
	if on {
		state, cut = 1, leave
	}
	swap := leave ^ enter
	k := 0
	for t := 1; t < len(out); t++ {
		out[k] = int32(t)
		k += int(state)
		var x uint64
		x, s = s.next()
		sw := below(x, cut)
		state ^= sw
		cut ^= swap & -sw
	}
	out[k] = int32(len(out))
	k += int(state)
	return k, s
}

// CountHeads flips the coin n times and returns the number of heads. It
// is the bulk form of
//
//	k := 0
//	for i := 0; i < n; i++ {
//		if r.Flip(c) {
//			k++
//		}
//	}
//
// and consumes the stream exactly as that loop does, with the state in
// local variables and no branch on the outcomes. It writes nothing, so a
// law shared between goroutines can call it without a buffer.
func (r *Stream) CountHeads(c Coin, n int) int {
	if n <= 0 {
		return 0
	}
	if !c.draw {
		return n * int(c.cut>>53)
	}
	var k int
	k, *r = countHeads(*r, c.cut, n)
	return k
}

// countHeads is CountHeads's loop for a drawing coin of cut cut, on a
// state passed by value.
func countHeads(s Stream, cut uint64, n int) (int, Stream) {
	var k uint64
	for ; n > 0; n-- {
		var x uint64
		x, s = s.next()
		k += below(x, cut)
	}
	return int(k), s
}
