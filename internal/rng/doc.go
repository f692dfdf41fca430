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
// # Per-edge kernels
//
// appendSchedule (one coin per slot, for a p(t) schedule), appendChain (a
// two-state on/off chain, for Markov link dynamics) and CountHeads (n
// flips of one coin, for binomial labels) draw many flips in one call.
// Each is defined as a loop of Flip calls, written out in its doc comment,
// and must consume the stream exactly as that loop does. A kernel copies
// the stream's state into a local variable, steps it there with the
// value-receiver next, and stores it back once on return; its loop never
// calls a *Stream method, because a pointer to the state keeps it in
// memory instead of in registers.
//
// appendSchedule and CountHeads have no branch on a coin: they add the
// 0-or-1 outcome to a count (and appendSchedule stores every slot before
// its outcome is known). CountHeads writes nothing, so a law shared by
// trial goroutines calls it without a buffer.
//
// appendChain compares each slot's word with one cut, the transition cut
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
// the chain's state, and appendChain runs its Flip loop as written.
//
// # Labelings in 8 lanes
//
// AppendSchedules and AppendChains draw a whole labeling, one schedule or
// chain per edge in edge order. Each is defined as the loop of its
// per-edge kernel over the edges, and leaves the same labels, offsets and
// stream state. On amd64 CPUs with AVX-512F (CPUID and XGETBV, checked
// once at start-up; the purego build tag leaves the assembly out) they
// run the labeling in 8 lanes of xoshiro256**, one per quadword of a ZMM
// register:
//
//   - Every edge draws the same number of words w: a schedule one per
//     slot when every coin draws, a chain its a−1 transitions (and its
//     start flip, if that draws) when both transition coins draw. So the
//     stream splits exactly into 8 runs of E = ⌊m/8⌋ consecutive edges,
//     and lane j's run starts j·D words in, for D = E·w.
//   - The jump (jump.go): xoshiro256** steps its state by a linear map T
//     over GF(2)²⁵⁶, so T^D = q(T) for q = x^D mod P, where P is T's
//     characteristic polynomial. Berlekamp–Massey finds P once, from 512
//     steps of one state bit; its degree is 256, and x^(2¹²⁸) mod P is the
//     jump polynomial the generator's authors publish (TestCharPoly). x^D
//     comes by squaring (squares over GF(2) only spread the bits) with a
//     nibble table for the reduction, and x^(jD) by six products. A lane
//     table holds the 8 polynomials transposed, one byte per power of x,
//     256 bytes per D; seedLanes walks the state through its 256 powers
//     once and XORs each into the lanes its byte names. A new D costs
//     about 30 µs warm (BenchmarkLaneTableMiss) and up to 80 µs cold; a
//     process's first D also pays 80–110 µs for Berlekamp–Massey and the
//     reduction tables. A fixed cache of 32 tables under a mutex serves
//     every later labeling without allocating.
//   - scheduleBlock and chainBlock step the 8 states with Uint64's shifts,
//     rotations and XORs, and compare each word x with the slot's cut
//     shifted left by 11 (x < cut·2¹¹ exactly when x>>11 < cut). A chain
//     picks leave or enter per lane by a mask blend. Each slot's outcome
//     is ORed into a bitmap word per lane and 64-slot chunk, so any
//     lifetime works; expandBlock turns the bitmaps into labels 16 slots
//     at a time with VPCOMPRESSD, with no branch on a bit.
//   - Each lane's labels wait in a pooled buffer until every lane is done,
//     then go to dst in lane order. Lane 7 ends where the per-edge loop
//     would be after 8E edges, and the m − 8E edges left draw from there
//     with the per-edge kernels.
//
// So no stream changes: each word lands on the edge and slot the
// per-edge loop gives it, and every output downstream is byte-identical.
//
// The lanes pay a fixed cost per labeling, about 1.3–1.5 µs for the table
// lookup, the seeding and the buffers. Measured on a 2-vCPU AVX-512 Xeon
// at GOMAXPROCS=1, they break even with the per-edge kernels at about 512
// words a labeling (1.7–2.2 µs either way) and win 1.3–1.7× at 1024, so
// labelings of at least minLaneWords = 1024 words take them. At E18's
// n = 48 cell (2256 edges, 48 slots) a labeling takes 63–79 µs in lanes
// against 250–410 µs per edge (BenchmarkAppendSchedules,
// BenchmarkAppendChains with and without -tags purego), about 0.6 ns a
// word. Schedules with a slot of p = 0 or 1 and chains with alpha or beta
// equal to 1 keep the per-edge kernels, as does every labeling on other
// platforms.
//
// The tests pin every per-edge kernel, and both chain kernels on every
// coin pair, to its Flip loop (coin_test.go, with FuzzCoinKernels); the
// bulk forms to the per-edge kernels, their oracle, on both sides of
// every lane boundary (bulk_test.go, with FuzzAppendSchedules and
// FuzzAppendChains); the jump to plain steps (jump_test.go); and the avail
// and dist tests pin the models built on them to per-slot Bernoulli loops.
// Bernoulli itself is kept as that test reference: no non-test code calls
// it.
package rng
