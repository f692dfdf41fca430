package experiments

import (
	"fmt"
	"math"

	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/table"
)

// E4Spread measures the §3.5 flooding protocol on the directed normalized
// URT clique: broadcast completion time (O(log n) whp), total protocol
// transmissions (Θ(n²): the price of obliviousness) and the coverage
// timeline figure.
func E4Spread(cfg Config) Result {
	ns := []int{64, 128, 256, 512, 1024}
	trials := 30
	if cfg.Quick {
		ns = []int{64, 128, 256}
		trials = 8
	}

	tb := table.New(
		"E4: flooding the directed normalized URT clique from one source (§3.5)",
		"n", "ln n", "completion mean", "±95%", "completion p95", "compl/ln n", "all-informed rate", "tree depth", "transmissions", "tx/n²",
	)
	var xs, ys []float64
	for _, n := range ns {
		g := graph.Clique(n, true)
		res := cfg.run(nil, trials, cfg.Seed+uint64(n)*7, uniform(n, 1), g, func(trial int, r *rng.Stream, draw sim.Draw) sim.Metrics {
			net := draw(r)
			src := r.Intn(n)
			sp := core.Spread(net, src)
			m := sim.Metrics{
				"all": 0,
				"tx":  float64(sp.Transmissions),
			}
			if sp.All {
				m["all"] = 1
				m["done"] = float64(sp.CompletionTime)
				// Depth of the who-informed-whom tree: how many relay
				// generations the logarithmic completion takes.
				m["depth"] = float64(core.BuildSpreadTree(net, src).MaxDepth())
			}
			return m
		})
		done := res.Sample("done")
		lnN := math.Log(float64(n))
		tx := res.Sample("tx").Mean()
		tb.AddRow(
			table.I(n), table.F(lnN, 2),
			table.F(done.Mean(), 2), table.F(done.CI95(), 2),
			table.F(done.Quantile(0.95), 1),
			table.F(done.Mean()/lnN, 3),
			table.F(res.Rate("all"), 3),
			table.F(res.Sample("depth").Mean(), 1),
			table.F(tx, 0),
			table.F(tx/float64(n*n), 3),
		)
		xs = append(xs, lnN)
		ys = append(ys, done.Mean())
	}
	fit := stats.Fit(xs, ys)
	tb.AddNote("fit completion = %.2f + %.2f·ln n (R²=%.3f) — §3.5's O(log n) dissemination", fit.Alpha, fit.Beta, fit.R2)
	tb.AddNote("tx/n² ≈ const: the oblivious protocol fires on nearly every arc — compare E10's phone-call budgets")
	tb.AddNote("trials=%d seed=%d", trials, cfg.Seed)

	// Coverage timeline of one instance (the "figure").
	nFig := 512
	if cfg.Quick {
		nFig = 128
	}
	g := graph.Clique(nFig, true)
	net := avail.Network(uniform(nFig, 1), g, rng.NewStream(cfg.Seed, 0xF4))
	sp := core.Spread(net, 0)
	var tx2, ty2 []float64
	for _, pt := range sp.Timeline {
		tx2 = append(tx2, float64(pt.Time))
		ty2 = append(ty2, float64(pt.Informed))
	}
	fig := table.Plot(
		fmt.Sprintf("Figure E4: informed vertices over time, n=%d (S-curve; done at t=%d)", nFig, sp.CompletionTime),
		60, 14, table.Series{Name: "informed(t)", X: tx2, Y: ty2},
	)
	return Result{Tables: []*table.Table{tb}, Figures: []string{fig}}
}
