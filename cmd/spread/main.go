// Command spread floods a message through a uniform random temporal clique
// from one source (§3.5's protocol) and prints the dissemination timeline,
// with the random phone-call model's PUSH and PUSH-PULL as baselines.
//
// Usage:
//
//	spread -n 512
//	spread -n 512 -source 7 -seed 3
//	spread -n 256 -lifetime 1024   # slower spreading: Theorem 5 regime
//	spread -n 8192 -summary        # coverage only, skips the O(n²) replay
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/phonecall"
	"repro/internal/rng"
	"repro/internal/temporal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spread", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n        = fs.Int("n", 256, "clique size (≥ 2)")
		lifetime = fs.Int("lifetime", 0, "lifetime a ≥ 1; 0 means n")
		source   = fs.Int("source", 0, "source vertex in [0, n)")
		seed     = fs.Uint64("seed", 1, "instance seed")
		summary  = fs.Bool("summary", false, "coverage summary only: answers from the earliest-arrival engine without the event-by-event replay (no timeline or transmission counts)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	a := *lifetime
	if a == 0 {
		a = *n
	}
	var usage string
	switch {
	case *n < 2:
		usage = "need n >= 2"
	case a < 1:
		usage = "need lifetime >= 1"
	case *source < 0 || *source >= *n:
		usage = "need source in [0, n)"
	}
	if usage != "" {
		fmt.Fprintln(stderr, "spread:", usage)
		fs.Usage()
		return 2
	}

	g := graph.Clique(*n, true)
	lab := assign.Uniform(g, a, 1, rng.New(*seed))
	net := temporal.MustNew(g, a, lab)

	if *summary {
		_, informed, completion := core.SpreadReach(net, *source)
		fmt.Fprintf(stdout, "flooding the directed URT clique: n=%d lifetime=%d source=%d\n\n", *n, a, *source)
		if informed == *n {
			fmt.Fprintf(stdout, "all %d vertices informed at t=%d  (ln n = %.1f — §3.5 predicts O(log n))\n",
				*n, completion, math.Log(float64(*n)))
		} else {
			fmt.Fprintf(stdout, "only %d/%d informed within the lifetime (last at t=%d)\n", informed, *n, completion)
		}
		return 0
	}

	res := core.Spread(net, *source)

	fmt.Fprintf(stdout, "flooding the directed URT clique: n=%d lifetime=%d source=%d\n\n", *n, a, *source)
	fmt.Fprintln(stdout, "  time  informed  coverage")
	for _, pt := range res.Timeline {
		frac := float64(pt.Informed) / float64(*n)
		bar := strings.Repeat("#", int(frac*40))
		fmt.Fprintf(stdout, "  %4d  %8d  %-40s %5.1f%%\n", pt.Time, pt.Informed, bar, 100*frac)
	}
	fmt.Fprintln(stdout)
	if res.All {
		fmt.Fprintf(stdout, "all %d vertices informed at t=%d  (ln n = %.1f — §3.5 predicts O(log n))\n",
			*n, res.CompletionTime, math.Log(float64(*n)))
	} else {
		fmt.Fprintf(stdout, "only %d/%d informed within the lifetime\n", res.Informed, *n)
	}
	fmt.Fprintf(stdout, "protocol transmissions: %d total, %d useful (n² = %d)\n\n",
		res.Transmissions, res.UsefulTransmissions, (*n)*(*n))

	gu := graph.Clique(*n, false)
	push := phonecall.Push(gu, *source, 0, rng.New(*seed+1))
	pp := phonecall.PushPull(gu, *source, 0, rng.New(*seed+2))
	fmt.Fprintf(stdout, "phone-call baselines (§1.1): push %d rounds / %d tx; push-pull %d rounds / %d tx\n",
		push.Rounds, push.Transmissions, pp.Rounds, pp.Transmissions)
	return 0
}
