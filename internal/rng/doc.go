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
// AppendSchedule (one coin per slot, for p(t) schedules), AppendChain (a
// two-state on/off chain, for Markov link dynamics) and CountHeads (n
// flips of one coin, for binomial labels) draw many flips in one call.
// Each is defined as a loop of Flip calls, written out in its doc comment,
// and must consume the stream exactly as that loop does. A kernel copies
// the stream's state into a local variable, steps it there with the
// value-receiver next, and stores it back once on return; its loop never
// calls a *Stream method, because a pointer to the state keeps it in
// memory instead of in registers.
//
// AppendSchedule and CountHeads have no branch on a coin: they add the
// 0-or-1 outcome to a count (and AppendSchedule stores every slot before
// its outcome is known). CountHeads writes nothing, so a law shared by
// trial goroutines calls it without a buffer.
//
// AppendChain compares each slot's word with one cut, the transition cut
// for the chain's current state, and picks one of two kernels from the
// transition coins:
//
//   - chainRuns, when either transition probability is at most 1/32
//     (cut ≤ 2⁴⁸, rareSwitch): it runs the chain one run at a time, an
//     on run storing its slots and an off run only drawing, with one
//     branch per slot that is taken only when the chain switches. At
//     stationarity a chain switches on at most twice the smaller
//     probability of its slots, so the branch is predicted right on all
//     but one slot in 16 or fewer.
//   - chainSwitch otherwise: branch-free, it stores every slot, adds the
//     0-or-1 state to the count, and flips the state and the cut by
//     arithmetic when the word falls below the cut.
//
// Timed side by side on a 2.0 GHz Xeon, a raw xoshiro step on a state in
// registers costs about 2.0 ns; chainSwitch takes 3.6–3.9 ns per slot at
// every switch rate, and chainRuns 2.7 ns when one slot in 160 switches
// but 9.3 ns when every other slot does, which is why it only takes the
// rare switchers. When a transition coin draws
// nothing (alpha or beta equal to 1), whether a word is drawn depends on
// the chain's state, and AppendChain runs its Flip loop as written.
//
// The tests pin every kernel, and both chain kernels on every coin pair,
// to its Flip loop (coin_test.go, with FuzzCoinKernels), and the avail and
// dist tests pin the models built on them to per-slot Bernoulli loops.
// Bernoulli itself is kept as that test reference: no non-test code calls
// it.
package rng
