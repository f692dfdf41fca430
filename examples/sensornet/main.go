// Sensor network: a duty-cycled wireless field. Radios on a 8×8 grid wake
// at random slots of a frame to save energy; a reading can hop between
// neighbors only when both are awake — a random temporal network over the
// grid. The deployment question is exactly Theorem 7's: how many random
// wake slots per link guarantee that every sensor can route to every other
// within one frame, with high probability, without any global schedule
// coordination?
package main

import (
	"context"
	"fmt"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

func main() {
	const rows, cols = 8, 8
	g := graph.Grid(rows, cols)
	n := g.N()
	frame := n // one slot per sensor: the normalized lifetime
	diam, _ := graph.Diameter(g)
	fmt.Printf("duty-cycled sensor grid %dx%d: n=%d links=%d hop-diameter=%d frame=%d slots\n\n",
		rows, cols, n, g.M(), diam, frame)

	// Theorem 7: 2·d·ln n random slots per link always suffice whp.
	rSafe := core.TheoremSevenR(n, diam)
	rate, lo, hi := core.ReachabilityRate(context.Background(), g, frame, rSafe, 40, 7)
	fmt.Printf("Theorem 7 budget  : %d wake slots per link → Pr[all-pairs routable] = %.3f [%.3f,%.3f]\n",
		rSafe, rate, lo, hi)

	// In practice the threshold is far smaller: estimate it.
	rhat, ok := core.EstimateR(context.Background(), g, frame, core.WHPTarget(n), 40, 11, rSafe*2)
	if ok {
		fmt.Printf("measured threshold: %d slots per link already reach the 1-1/n target\n", rhat)
		fmt.Printf("                    (%.0f%% of the worst-case budget)\n\n",
			100*float64(rhat)/float64(rSafe))
	}

	// With a coordinator one frame schedule does it deterministically:
	// Claim 1's box labeling.
	boxes := assign.Boxes(g, frame, diam, assign.FirstOfBox)
	net := temporal.MustNew(g, frame, boxes)
	fmt.Printf("with coordination : %d slots per link (one per diameter box) — routable: %v\n",
		diam, temporal.SatisfiesTreachSerial(net, nil))

	// Demonstrate an actual route on a random uncoordinated deployment.
	lab := assign.Uniform(g, frame, rhat, rng.New(99))
	dep := temporal.MustNew(g, frame, lab)
	corner, opposite := 0, n-1
	if j, found := dep.ForemostJourney(corner, opposite); found {
		fmt.Printf("\nexample route corner→corner in a random deployment:\n  %v\n  (%d hops, delivered at slot %d)\n",
			j, len(j), j.ArrivalTime())
	} else {
		fmt.Println("\nthis random deployment missed corner→corner — below-threshold budgets do that")
	}
}
