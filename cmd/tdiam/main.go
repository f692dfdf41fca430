// Command tdiam measures the temporal diameter of one uniform random
// temporal clique instance — the quantity Theorems 4 and 5 bound.
//
// Usage:
//
//	tdiam -n 512                 # normalized lifetime a = n
//	tdiam -n 256 -lifetime 2048  # Theorem 5 regime a >> n
//	tdiam -n 512 -undirected
//	tdiam -n 512 -trials 20      # Monte-Carlo mean over instances
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/temporal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tdiam", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n          = fs.Int("n", 256, "number of vertices")
		lifetime   = fs.Int("lifetime", 0, "lifetime a ≥ 1 (default n, the normalized case)")
		trials     = fs.Int("trials", 10, "independent instances to average (≥ 1)")
		seed       = fs.Uint64("seed", 1, "base seed")
		undirected = fs.Bool("undirected", false, "use the undirected clique")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	a := *n // the normalized case unless -lifetime is given
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "lifetime" {
			a = *lifetime
		}
	})
	var usage string
	switch {
	case *n < 2:
		usage = "need n >= 2"
	case a < 1:
		usage = "need lifetime >= 1"
	case *trials < 1:
		usage = "need trials >= 1"
	}
	if usage != "" {
		fmt.Fprintln(stderr, "tdiam:", usage)
		fs.Usage()
		return 2
	}

	g := graph.Clique(*n, !*undirected)
	fmt.Fprintf(stdout, "uniform random temporal clique: n=%d, lifetime=%d, directed=%v, %d trials\n\n",
		*n, a, !*undirected, *trials)

	// The registry's uniform model at one label per edge: trial i draws
	// exactly assign.Uniform(g, a, 1, rng.NewStream(seed, i)). Every arc
	// carries a label, so every ordered pair has a one-hop journey and the
	// diameter is always finite.
	b := &sim.BatchRunner{Model: avail.NewIID(dist.NewUniform(a), 1), Substrate: g, Seed: *seed}
	// Run fails only on a cancelled context, and Background never is.
	res, _ := b.Run(context.Background(), 0, *trials, func(_ int, r *rng.Stream, draw sim.Draw) sim.Metrics {
		d := temporal.Diameter(draw(r))
		return sim.Metrics{"td": float64(d.Max), "mean": d.MeanFinite}
	})
	td, mean := res.Sample("td"), res.Sample("mean")

	lnN := math.Log(float64(*n))
	fmt.Fprintf(stdout, "temporal diameter : mean %.2f", td.Mean())
	if td.N() > 1 {
		fmt.Fprintf(stdout, " ± %.2f (95%% CI)", td.CI95())
	}
	fmt.Fprintf(stdout, ", min %.0f, max %.0f\n", td.Min(), td.Max())
	fmt.Fprintf(stdout, "mean temporal dist: %.2f\n", mean.Mean())
	fmt.Fprintf(stdout, "TD / ln n         : %.3f   (Theorem 4: ≤ γ with γ > 1 for a = n)\n", td.Mean()/lnN)
	if a > *n {
		scale := core.LifetimeLowerBound(*n, a)
		fmt.Fprintf(stdout, "TD / ((a/n)·ln n) : %.3f   (Theorem 5: bounded below by a constant)\n", td.Mean()/scale)
	}
	return 0
}
