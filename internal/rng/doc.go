// Package rng provides deterministic, splittable pseudo-randomness for the
// Monte-Carlo experiment harness.
//
// Reproducibility across parallel runs is the design constraint: trial i of
// an experiment must see the same random labels no matter how many workers
// execute trials or in which order. To that end, experiments derive one
// independent Stream per trial from a base seed with NewStream(seed, i);
// streams are cheap value types and never shared between goroutines.
//
// The generator is xoshiro256**, seeded through SplitMix64 as its authors
// recommend; bounded integers use Lemire's unbiased multiply-shift rejection
// method.
//
// # Coins
//
// A Coin is Bernoulli(p) compiled once for many flips. NewCoin(p) stores
// the integer cut ⌈p·2⁵³⌉, and a flip is heads when the drawn word x has
// x>>11 < cut. That is exactly Float64() < p, because Float64 is
// (x>>11)·2⁻⁵³ without rounding and p·2⁵³ only rescales p. The draw rule
// is Bernoulli's too: p <= 0 and p >= 1 draw nothing, every other p draws
// one word, and NaN draws one word and comes up tails. So Flip(NewCoin(p))
// and Bernoulli(p) agree outcome for outcome and word for word, which the
// tests check at the cut boundaries (multiples of 2⁻⁵³ and their
// neighbours, 1−2⁻⁵³, the smallest subnormal, ±0, 1 and NaN).
//
// # Bulk kernels
//
// AppendSchedule (one coin per slot, for p(t) schedules) and AppendChain
// (a two-state on/off chain, for Markov link dynamics) draw a whole edge's
// slots in one call. Each is defined as a loop of Flip calls, written out
// in its doc comment, and must consume the stream exactly as that loop
// does. A kernel copies the stream's state into a local variable, steps
// it there with the value-receiver next, and stores it back once on
// return; its loop never calls a *Stream method, because a pointer to the
// state keeps it in memory instead of in registers. The loops store every
// slot and keep it by adding the 0-or-1 outcome to a count, so no branch
// depends on a coin. The one exception is AppendChain with a transition
// coin that draws nothing (alpha or beta equal to 1): whether a word is
// drawn then depends on the chain's state, and the kernel runs its Flip
// loop as written. The tests pin each kernel to its Flip loop here, and
// the avail tests pin the models built on them to per-slot Bernoulli
// loops.
package rng
