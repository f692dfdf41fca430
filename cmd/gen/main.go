// Command gen generates random temporal network instances and writes them
// in the tnet text format (readable back with temporal.Decode), so
// experiments can be frozen, shared and replayed.
//
// Label assignment goes through the availability-model registry
// (internal/avail): -model picks any registered model (default uniform)
// and -mp sets its parameters. Scenario models (geometric) build their own
// support graph on n vertices and ignore -family.
//
// A bad flag value is a usage error: exit 2, the message on stderr and
// nothing on stdout.
//
// Usage:
//
//	gen -family clique -n 64 > clique64.tnet
//	gen -family star -n 128 -r 8 -seed 7
//	gen -family gnp -n 200 -p 0.05 -lifetime 400
//	gen -family grid -n 36 -model geom -mp p=0.05
//	gen -model markov -mp pi=0.05,runlen=6 -family path -n 50
//	gen -model pt-burst -mp start=0.3,width=0.1 -n 64
//	gen -model geometric -mp radius=0.18,step=0.05 -n 100
//	gen -list-models
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/avail"
	"repro/internal/graph"
	"repro/internal/rng"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		family     = fs.String("family", "clique", strings.Join(graph.FamilyNames(), ", "))
		n          = fs.Int("n", 64, "requested size (≥ 1)")
		p          = fs.Float64("p", 0, "edge probability for gnp (default 2·ln n/n)")
		deg        = fs.Int("deg", 4, "degree for regular")
		lifetime   = fs.Int("lifetime", 0, "lifetime a, ≥ 0 (0 = n)")
		r          = fs.Int("r", 1, "labels per edge for the i.i.d. models (≥ 1); other models ignore it")
		model      = fs.String("model", "uniform", "availability model (see -list-models)")
		mp         = fs.String("mp", "", "model parameters, name=value[,name=value…]")
		seed       = fs.Uint64("seed", 1, "generation seed")
		listModels = fs.Bool("list-models", false, "list availability models and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "gen: "+format+"\n", a...)
		return 2
	}

	if *listModels {
		for _, b := range avail.Builders() {
			kind := "edge"
			if b.Scenario {
				kind = "scenario"
			}
			fmt.Fprintf(stdout, "%-12s %-8s %s\n", b.Name, kind, b.Doc)
			for _, k := range b.Knobs {
				fmt.Fprintf(stdout, "             -mp %s=… (default %g): %s\n", k.Name, k.Default, k.Doc)
			}
		}
		return 0
	}

	switch {
	case *n < 1:
		return usage("need n >= 1")
	case *r < 1:
		return usage("need r >= 1")
	case *lifetime < 0:
		return usage("need lifetime >= 0")
	}
	knobs, err := avail.ParseKnobs(*mp)
	if err != nil {
		return usage("%v", err)
	}
	b, ok := avail.Lookup(*model)
	if !ok {
		return usage("unknown model %q (have %s)", *model, strings.Join(avail.Names(), ", "))
	}

	// The graph comes first: the default lifetime is the *realized* vertex
	// count g.N() — families like hypercube and grid round the requested
	// -n — and scenario models build their own support graph, so they get
	// an edgeless n-vertex placeholder instead of a discarded (and, for
	// random families, stream-consuming) -family substrate.
	stream := rng.New(*seed)
	var g *graph.Graph
	fam := *family
	if b.Scenario {
		g = graph.NewBuilder(*n, false).Build()
		fam = "(scenario)"
	} else {
		g, err = graph.Family(*family, *n, graph.FamilyOpts{P: *p, Deg: *deg}, stream)
		if err != nil {
			return usage("%v", err)
		}
	}

	a := *lifetime
	if a == 0 {
		a = g.N()
	}
	m, err := avail.Build(*model, avail.Params{Lifetime: a, R: *r, P: knobs})
	if err != nil {
		return usage("%v", err)
	}

	net := avail.Network(m, g, stream)
	// Only the i.i.d. laws draw -r labels per edge; other models ignore it.
	budget := ""
	if _, iid := m.(avail.IID); iid {
		budget = fmt.Sprintf(" r=%d", *r)
	}
	fmt.Fprintf(stdout, "# family=%s n=%d m=%d lifetime=%d%s model=%s seed=%d\n",
		fam, net.Graph().N(), net.Graph().M(), net.Lifetime(), budget, m.Name(), *seed)
	if err := net.Encode(stdout); err != nil {
		fmt.Fprintln(stderr, "gen:", err)
		return 1
	}
	return 0
}
