package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/temporal"
)

// E5StarReachability sweeps the per-edge label count r = ρ·log₂ n on the
// star K_{1,n−1} and measures Pr[Treach] and the 2-split journey structure:
// Theorem 6 puts the phase transition at r = Θ(log n), and Figure 2's
// 2-split journeys are the mechanism.
func E5StarReachability(cfg Config) Result {
	ns := []int{64, 128, 256}
	rhos := []float64{0.25, 0.5, 1, 2, 4, 8}
	trials := 60
	if cfg.Quick {
		ns = []int{64}
		rhos = []float64{0.5, 1, 2, 4}
		trials = 15
	}

	tb := table.New(
		"E5: star K_{1,n-1} reachability with r = ρ·log₂n uniform labels per edge (Theorem 6)",
		"n", "rho", "r", "Pr[Treach]", "CI95 lo", "CI95 hi", "2-split all-pairs", "2-split frac", "union bound fail",
	)
	var figX, figY []float64
	for _, n := range ns {
		log2n := math.Log2(float64(n))
		g := graph.Star(n)
		free := new(sim.FreeList)
		for _, rho := range rhos {
			r := int(math.Max(1, math.Round(rho*log2n)))
			res := cfg.run(free, trials, cfg.Seed+uint64(n)<<20+uint64(rho*16), uniform(n, r), g, func(trial int, stream *rng.Stream, draw sim.Draw) sim.Metrics {
				net := draw(stream)
				m := sim.Metrics{"reach": 0, "split": 0}
				if temporal.SatisfiesTreachSerial(net, nil) {
					m["reach"] = 1
				}
				ts := core.TwoSplit(net)
				if ts.AllPairs() {
					m["split"] = 1
				}
				m["frac"] = ts.Fraction()
				return m
			})
			rate := res.Rate("reach")
			successes := int(math.Round(res.Sample("reach").Sum()))
			lo, hi := stats.BinomialCI(successes, trials)
			tb.AddRow(
				table.I(n), table.F(rho, 2), table.I(r),
				table.F(rate, 3), table.F(lo, 3), table.F(hi, 3),
				table.F(res.Rate("split"), 3),
				table.F(res.Sample("frac").Mean(), 3),
				table.F(core.TwoSplitAllPairsFailureBound(n, rho), 4),
			)
			if n == ns[len(ns)-1] {
				figX = append(figX, rho)
				figY = append(figY, rate)
			}
		}
	}
	tb.AddNote("Theorem 6(a): ρ > 8 suffices whp; (b): r = o(log n) fails whp — the transition sits at Θ(log n)")
	tb.AddNote("2-split all-pairs is the paper's sufficient event; its rate lower-bounds Pr[Treach]")
	tb.AddNote("trials=%d seed=%d", trials, cfg.Seed)

	fig := table.Plot("Figure E5 (paper Fig. 2 mechanism): Pr[Treach] vs ρ on the largest star",
		60, 12, table.Series{Name: "Pr[Treach]", X: figX, Y: figY})
	return Result{Tables: []*table.Table{tb}, Figures: []string{fig}}
}
