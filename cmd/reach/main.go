// Command reach measures temporal reachability under random labels: the
// probability that r uniform labels per edge preserve reachability
// (Theorems 6 and 7), or, when -estimate is given, the estimated threshold
// r(n) with the Price of Randomness it implies: the deterministic OPT
// bounds, the PoR interval m·r(n)/OPT and Theorem 8's upper bound.
//
// Usage:
//
//	reach -family star -n 128 -r 8
//	reach -family star -n 128 -estimate
//	reach -family grid -n 36 -estimate -trials 50
//	reach -family cycle -n 64 -r 40 -trials 100
//	reach -family grid -n 36
//
// Families: star, path, cycle, grid (⌈n/4⌉×4), hypercube (2^⌊log₂n⌋),
// bintree, clique.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/graph"
)

// minN is the smallest n each -family value accepts: the smallest that
// builds the two vertices reachability is asked between. A cycle needs
// three, and a grid is one row of four vertices from n = 1.
var minN = map[string]int{
	"star": 2, "path": 2, "cycle": 3, "grid": 1, "hypercube": 2, "bintree": 2, "clique": 2,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reach", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		family   = fs.String("family", "star", "graph family")
		n        = fs.Int("n", 64, "requested size (some families round)")
		r        = fs.Int("r", 0, "labels per edge, ≥ 0 (0 = Theorem 7's 2·d·ln n)")
		estimate = fs.Bool("estimate", false, "estimate the threshold r(n) instead")
		trials   = fs.Int("trials", 60, "Monte-Carlo trials (≥ 1)")
		seed     = fs.Uint64("seed", 1, "base seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	least, known := minN[*family]
	var usage string
	switch {
	case !known:
		usage = fmt.Sprintf("unknown family %q", *family)
	case *n < least:
		usage = fmt.Sprintf("%s needs n >= %d", *family, least)
	case *family == "hypercube" && int64(*n) >= 1<<31:
		usage = "hypercube needs n < 2^31"
	case *r < 0:
		usage = "need r >= 0"
	case *trials < 1:
		usage = "need trials >= 1"
	}
	if usage != "" {
		fmt.Fprintln(stderr, "reach:", usage)
		fs.Usage()
		return 2
	}

	// The families are deterministic, so Family draws nothing and cannot
	// fail on a name minN knows.
	g, _ := graph.Family(*family, *n, graph.FamilyOpts{}, nil)
	nv, m := g.N(), g.M()
	diam, conn := graph.Diameter(g)
	if !conn {
		fmt.Fprintln(stderr, "reach: family instance is disconnected")
		return 1
	}
	fmt.Fprintf(stdout, "%s: n=%d m=%d diameter=%d lifetime=%d\n", *family, nv, m, diam, nv)

	if *estimate {
		target := core.WHPTarget(nv)
		rMax := 8 * core.TheoremSevenR(nv, diam)
		rhat, ok := core.EstimateR(g, nv, target, *trials, *seed, rMax)
		marker := ""
		if !ok {
			marker = " (search cap hit)"
		}
		fmt.Fprintf(stdout, "estimated r(n) at target %.4f: %d%s\n", target, rhat, marker)
		fmt.Fprintf(stdout, "Theorem 7 sufficient r = 2·d·ln n = %d\n", core.TheoremSevenR(nv, diam))
		fmt.Fprintf(stdout, "r(n)/log₂ n = %.2f\n", float64(rhat)/math.Log2(float64(nv)))
		optLo, optHi := assign.OptBounds(g)
		exact := ""
		if optLo == optHi {
			exact = " (exact)"
		}
		fmt.Fprintf(stdout, "deterministic OPT in [%d, %d]%s\n", optLo, optHi, exact)
		fmt.Fprintf(stdout, "Price of Randomness m·r(n)/OPT in [%.2f, %.2f]\n",
			core.PoR(m, rhat, optHi), core.PoR(m, rhat, optLo))
		fmt.Fprintf(stdout, "Theorem 8 PoR bound (2·d·ln n)·m/(n-1) = %.2f\n", core.TheoremEightPoRBound(nv, m, diam))
		return 0
	}

	rr := *r
	if rr == 0 {
		rr = core.TheoremSevenR(nv, diam)
		fmt.Fprintf(stdout, "using Theorem 7's r = 2·d·ln n = %d\n", rr)
	}
	rate, lo, hi := core.ReachabilityRate(g, nv, rr, *trials, *seed)
	fmt.Fprintf(stdout, "Pr[Treach] with r=%d: %.3f  (95%% CI [%.3f, %.3f], %d trials)\n", rr, rate, lo, hi, *trials)
	fmt.Fprintf(stdout, "whp target 1-1/n = %.4f\n", core.WHPTarget(nv))
	return 0
}
