package assign

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/temporal"
)

// OPT machinery. The paper's Price of Randomness divides by
// OPT = min Σ_e |L_e| over reachability-preserving assignments, a quantity
// that is NP-hard to approximate in general (Mertzios et al., ICALP'13).
// This file provides what a reproduction can: exact exhaustive search for
// tiny instances (used by tests to pin down star optima) and the
// lower/upper bounds the paper itself argues with (n−1 and the double-tour
// construction).

// OptBounds returns provable bounds on OPT for a connected undirected
// graph: lower = n−1 (a spanning structure must carry labels — the bound
// Theorem 8 uses) and upper = 4(n−1) (the DoubleTour construction). For
// stars the exact value 2m−1 tightens both sides.
func OptBounds(g *graph.Graph) (lo, hi int) {
	n := g.N()
	if n <= 1 {
		return 0, 0
	}
	lo = n - 1
	hi = 4 * (n - 1)
	if isStar(g) {
		lo = 2*g.M() - 1
		hi = lo
	}
	return lo, hi
}

// isStar reports whether g is K_{1,m} for some m >= 2: one center adjacent
// to all others, no other edges.
func isStar(g *graph.Graph) bool {
	n := g.N()
	if g.Directed() || n < 3 || g.M() != n-1 {
		return false
	}
	centers := 0
	for v := 0; v < n; v++ {
		switch g.OutDegree(v) {
		case n - 1:
			centers++
		case 1:
			// leaf
		default:
			return false
		}
	}
	return centers == 1
}

// OptExact finds the minimum total number of labels over all assignments
// with labels drawn from {1,…,q} that preserve the reachability of g, by
// exhaustive search over per-edge label subsets with budget pruning. The
// search space is (2^q)^m, so it is intended for tiny instances (tests use
// n ≤ 4, q ≤ 6); maxTotal caps the budget and the second result reports
// whether any assignment within the cap succeeded. It is the oracle behind
// the TestOptExact* tests, which pin the star optimum 2m−1 that E6's table
// note cites by name.
func OptExact(g *graph.Graph, q, maxTotal int) (int, bool) {
	if q < 1 || q > 20 {
		panic("assign: OptExact needs 1 <= q <= 20")
	}
	m := g.M()
	// Static reachability matrix once.
	nv := g.N()
	staticReach := make([][]bool, nv)
	for s := 0; s < nv; s++ {
		dist := graph.BFS(g, s)
		staticReach[s] = make([]bool, nv)
		for v, d := range dist {
			staticReach[s][v] = d >= 0
		}
	}

	// Iterative deepening on the total label budget gives the minimum.
	sets := make([]uint32, m) // bitmask of labels per edge; bit i = label i+1
	for budget := 0; budget <= maxTotal; budget++ {
		if searchAssign(g, staticReach, sets, 0, budget, q) {
			return budget, true
		}
	}
	return 0, false
}

// searchAssign tries to spend exactly the remaining budget on edges e… and
// satisfy Treach.
func searchAssign(g *graph.Graph, staticReach [][]bool, sets []uint32, e, remaining, q int) bool {
	if e == len(sets) {
		return remaining == 0 && treachSmall(g, staticReach, sets)
	}
	// Enumerate subsets of {1..q} with popcount <= remaining.
	for mask := uint32(0); mask < 1<<uint(q); mask++ {
		c := bits.OnesCount32(mask)
		if c > remaining {
			continue
		}
		sets[e] = mask
		if searchAssign(g, staticReach, sets, e+1, remaining-c, q) {
			return true
		}
	}
	sets[e] = 0
	return false
}

// treachSmall checks the Treach property directly on bitmask label sets —
// a serial checker sized for the exhaustive search's tiny instances.
func treachSmall(g *graph.Graph, staticReach [][]bool, sets []uint32) bool {
	nv := g.N()
	explicit := make([][]int, len(sets))
	for e, mask := range sets {
		for mask != 0 {
			b := bits.TrailingZeros32(mask)
			explicit[e] = append(explicit[e], b+1)
			mask &^= 1 << uint(b)
		}
	}
	maxLabel := 1
	for _, ls := range explicit {
		for _, l := range ls {
			if l > maxLabel {
				maxLabel = l
			}
		}
	}
	net := temporal.MustNew(g, maxLabel, temporal.LabelingFromSets(explicit))
	arr := make([]int32, nv)
	for s := 0; s < nv; s++ {
		net.EarliestArrivalsInto(s, arr)
		for v := 0; v < nv; v++ {
			if staticReach[s][v] && arr[v] == temporal.Unreachable {
				return false
			}
		}
	}
	return true
}
