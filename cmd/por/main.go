// Command por computes the Price of Randomness for a graph family: the
// estimated random-label threshold r(n), deterministic OPT bounds, the
// resulting PoR interval, and Theorem 8's upper bound.
//
// Usage:
//
//	por -family star -n 64
//	por -family grid -n 36 -trials 50
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

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// minN is the smallest n each -family value accepts: the smallest that
// builds the two vertices r(n) and the PoR need. A cycle needs three, and a
// grid is one row of four vertices from n = 1.
var minN = map[string]int{
	"star": 2, "path": 2, "cycle": 3, "grid": 1, "hypercube": 2, "bintree": 2,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("por", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		family = fs.String("family", "star", "star, path, cycle, grid, hypercube, bintree")
		n      = fs.Int("n", 64, "requested size")
		trials = fs.Int("trials", 40, "trials per threshold probe (≥ 1)")
		seed   = fs.Uint64("seed", 1, "base seed")
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
	case *trials < 1:
		usage = "need trials >= 1"
	}
	if usage != "" {
		fmt.Fprintln(stderr, "por:", usage)
		fs.Usage()
		return 2
	}

	// The families are deterministic, so Family draws nothing and cannot
	// fail on a name minN knows.
	g, _ := graph.Family(*family, *n, graph.FamilyOpts{}, nil)
	nv, m := g.N(), g.M()
	diam, _ := graph.Diameter(g)

	fmt.Fprintf(stdout, "%s: n=%d m=%d d=%d\n\n", *family, nv, m, diam)
	rhat, ok := core.EstimateR(g, nv, core.WHPTarget(nv), *trials, *seed, 8*core.TheoremSevenR(nv, diam))
	marker := ""
	if !ok {
		marker = "+"
	}
	fmt.Fprintf(stdout, "estimated r(n)          : %d%s uniform labels/edge (target 1-1/n)\n", rhat, marker)

	optLo, optHi := assign.OptBounds(g)
	fmt.Fprintf(stdout, "deterministic OPT       : in [%d, %d]", optLo, optHi)
	if optLo == optHi {
		fmt.Fprintf(stdout, " (exact)")
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "Price of Randomness     : in [%.2f, %.2f]  (m·r/OPT)\n",
		core.PoR(m, rhat, optHi), core.PoR(m, rhat, optLo))
	fmt.Fprintf(stdout, "Theorem 8 upper bound   : %.2f  ((2·d·ln n)·m/(n-1))\n",
		core.TheoremEightPoRBound(nv, m, diam))
	fmt.Fprintf(stdout, "r(n)/log₂n              : %.2f  (Theorem 6: Θ(log n) already for diameter 2)\n",
		float64(rhat)/math.Log2(float64(nv)))
	return 0
}
