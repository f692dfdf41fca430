// Command expansion runs Algorithm 1 (the Expansion Process) on one
// instance of the directed normalized uniform random temporal clique and
// narrates the run: window plan, frontier growth, the matched edge, the
// constructed journey and how it compares to the true foremost journey.
//
// Usage:
//
//	expansion -n 1024
//	expansion -n 1024 -s 3 -t 99 -c1 2 -c2 8
//	expansion -n 512 -intersect   # count set-intersection successes too
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run exits 0 when the process finds a journey, 1 when it fails, and 2 on
// a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("expansion", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n         = fs.Int("n", 512, "clique size")
		s         = fs.Int("s", 0, "source vertex")
		t         = fs.Int("t", 1, "target vertex")
		c1        = fs.Float64("c1", 0, "wide-window constant in [0, n] (0 = default)")
		c2        = fs.Int("c2", 0, "expansion-window width in [0, n] (0 = default)")
		d         = fs.Int("d", 0, "expansion steps per side in [0, n] (0 = auto)")
		seed      = fs.Uint64("seed", 1, "instance seed")
		intersect = fs.Bool("intersect", false, "allow set-intersection success (ablation)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Knobs above n plan windows past the lifetime n, where the process
	// can only fail, and bounding them by n keeps the plan's int32 label
	// arithmetic from overflowing for any clique that fits in memory.
	var usage string
	switch {
	case *s == *t || *s < 0 || *t < 0 || *s >= *n || *t >= *n:
		usage = "need distinct s, t in [0, n)"
	case !(*c1 >= 0 && *c1 <= float64(*n)):
		usage = "need c1 in [0, n]"
	case *c2 < 0 || *c2 > *n:
		usage = "need c2 in [0, n]"
	case *d < 0 || *d > *n:
		usage = "need d in [0, n]"
	}
	if usage != "" {
		fmt.Fprintln(stderr, "expansion:", usage)
		fs.Usage()
		return 2
	}

	g := graph.Clique(*n, true)
	lab := assign.NormalizedURTN(g, rng.New(*seed))
	net := temporal.MustNew(g, *n, lab)

	cfg := core.ExpansionConfig{C1: *c1, C2: *c2, D: *d, AllowIntersection: *intersect}
	plan := core.PlanExpansion(*n, cfg)
	fmt.Fprintf(stdout, "plan: W1=%d, C2=%d, D=%d — all windows fit in (0, %d] (lifetime %d)\n",
		plan.W1, plan.C2, plan.D, plan.Bound, net.Lifetime())
	for i := 1; i <= plan.D+1; i++ {
		lo, hi := plan.ForwardWindow(i)
		fmt.Fprintf(stdout, "  ∆%-2d = (%d, %d]\n", i, lo, hi)
	}
	lo, hi := plan.MatchWindow()
	fmt.Fprintf(stdout, "  ∆*  = (%d, %d]\n", lo, hi)
	for i := plan.D + 1; i >= 1; i-- {
		lo, hi := plan.ReverseWindow(i)
		fmt.Fprintf(stdout, "  ∆'%-2d= (%d, %d]\n", i, lo, hi)
	}

	res := core.Expansion(net, *s, *t, cfg)
	fmt.Fprintf(stdout, "\nforward frontier sizes |Γ_i(s)| : %v\n", res.ForwardSizes)
	fmt.Fprintf(stdout, "reverse frontier sizes |Γ'_i(t)|: %v\n", res.ReverseSizes)
	if !res.Success {
		fmt.Fprintf(stdout, "\nFAILURE: %s\n", res.Reason)
		return 1
	}
	how := "∆*-matched edge"
	if res.ViaIntersection {
		how = "set intersection (ablation path)"
	}
	fmt.Fprintf(stdout, "\nSUCCESS via %s\n", how)
	fmt.Fprintf(stdout, "journey: %v\n", res.Journey)
	fmt.Fprintf(stdout, "arrival: %d (plan bound %d)\n", res.Arrival, plan.Bound)

	arr := net.EarliestArrivals(*s)
	fmt.Fprintf(stdout, "exact foremost δ(s,t) = %d\n", arr[*t])
	if e, ok := g.EdgeBetween(*s, *t); ok {
		fmt.Fprintf(stdout, "waiting for the direct arc would take: %d (≈ n/2 in expectation)\n",
			net.EdgeLabels(e)[0])
	}
	return 0
}
