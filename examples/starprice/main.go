// Star price: a walkthrough of Theorem 6 on the star K_{1,n−1}. Two labels
// per edge solve reachability deterministically (even 2m−1 in total), but
// if each link can only buy *random* availability moments, Θ(log n) of
// them are needed — the Price of Randomness of a diameter-2 network is
// already logarithmic.
package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

func main() {
	const n = 128
	g := graph.Star(n)
	m := g.M()
	fmt.Printf("star K_{1,%d}: n=%d, m=%d, diameter 2\n\n", n-1, n, m)

	// Deterministic side: the paper's 2-labels-per-edge witness and this
	// repository's exact 2m−1 optimum.
	two := temporal.MustNew(g, 2, assign.StarTwoPerEdge(g))
	opt := temporal.MustNew(g, 2*m, assign.StarOptimal(g))
	fmt.Printf("deterministic {1,2} on every edge  : %d labels, Treach=%v\n",
		2*m, temporal.SatisfiesTreachSerial(two, nil))
	fmt.Printf("deterministic optimum              : %d labels, Treach=%v (OPT = 2m-1, exact)\n\n",
		2*m-1, temporal.SatisfiesTreachSerial(opt, nil))

	// Random side: sweep r and watch the 2-split phase transition.
	fmt.Println("random labels per edge → Pr[Treach] (40 trials each):")
	for _, r := range []int{1, 2, 4, 7, 14, 28, 56} {
		rate, _, _ := core.ReachabilityRate(context.Background(), g, n, r, 40, uint64(1000+r))
		rho := float64(r) / math.Log2(n)
		fmt.Printf("  r=%3d (ρ=%4.1f·log₂n): %.2f\n", r, rho, rate)
	}

	// The mechanism: 2-split journeys through the center (Fig. 2).
	lab := assign.Uniform(g, n, 7, rng.New(5))
	net := temporal.MustNew(g, n, lab)
	ts := core.TwoSplit(net)
	fmt.Printf("\nwith r=7: %d/%d leaf edges have an early label, %d/%d a late one;\n",
		ts.EarlyEdges, ts.Leaves, ts.LateEdges, ts.Leaves)
	fmt.Printf("2-split journeys cover %.1f%% of ordered leaf pairs (all pairs: %v)\n",
		100*ts.Fraction(), ts.AllPairs())

	// The headline number.
	rhat, _ := core.EstimateR(context.Background(), g, n, core.WHPTarget(n), 40, 17, 128)
	fmt.Printf("\nestimated r(n) = %d ⇒ PoR = m·r/OPT = %.1f ≈ %.2f·log₂ n (Theorem 6: Θ(log n))\n",
		rhat, core.PoR(m, rhat, 2*m-1), core.PoR(m, rhat, 2*m-1)/math.Log2(n))
}
