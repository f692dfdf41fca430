package experiments

import (
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/temporal"
)

// E1Diameter measures the temporal diameter of the directed normalized
// uniform random temporal clique across n, fits TD ≈ γ·ln n, and checks
// the Ω(log n) side via the label-prefix connectivity argument.
//
// Paper anchors: Theorem 4 (TD ≤ γ·log n whp) and the remark after it
// (TD = Ω(log n)).
func E1Diameter(cfg Config) Result {
	ns := []int{32, 64, 128, 256, 512}
	trials := 30
	maxSources := 256
	if cfg.Quick {
		ns = []int{32, 64, 128}
		trials = 8
		maxSources = 64
	}

	tb := table.New(
		"E1: temporal diameter of the directed normalized URT clique (Theorem 4)",
		"n", "ln n", "TD mean", "±95%", "TD p95", "TD max", "TD/ln n", "all-reach rate",
	)
	// Lower-bound side: the k-prefix of the labels must connect before any
	// TD ≤ k is possible; measure the smallest connecting k.
	lb := table.New(
		"E1b: label-prefix connectivity time vs ln n (Ω(log n) remark)",
		"n", "ln n", "conn-time mean", "±95%", "conn/ln n", "TD ≥ conn rate",
	)
	var xs, ys []float64
	for _, n := range ns {
		// Both tables' rows for n relabel one pool of worker cliques.
		g := graph.Clique(n, true)
		free := new(sim.FreeList)
		res := cfg.run(free, trials, cfg.Seed+uint64(n), uniform(n, 1), g, func(trial int, r *rng.Stream, draw sim.Draw) sim.Metrics {
			net := draw(r)
			d := serialDiameter(net, maxSources, r)
			m := sim.Metrics{"reach": 0}
			if d.AllReachable {
				m["reach"] = 1
				m["td"] = float64(d.Max)
			}
			return m
		})
		td := res.Sample("td")
		lnN := math.Log(float64(n))
		tb.AddRow(
			table.I(n), table.F(lnN, 2),
			table.F(td.Mean(), 2), table.F(td.CI95(), 2),
			table.F(td.Quantile(0.95), 1), table.F(td.Max(), 0),
			table.F(td.Mean()/lnN, 3),
			table.F(res.Rate("reach"), 3),
		)
		if !math.IsNaN(td.Mean()) {
			xs = append(xs, lnN)
			ys = append(ys, td.Mean())
		}

		res = cfg.run(free, trials, cfg.Seed^0xE1B+uint64(n), uniform(n, 1), g, func(trial int, r *rng.Stream, draw sim.Draw) sim.Metrics {
			net := draw(r)
			k := temporal.ConnectedPrefix(net, nil)
			m := sim.Metrics{"conn": float64(k)}
			d := serialDiameter(net, 32, r)
			if d.AllReachable {
				ok := 0.0
				if int(d.Max) >= k {
					ok = 1
				}
				m["tdGEconn"] = ok
			}
			return m
		})
		conn := res.Sample("conn")
		lb.AddRow(
			table.I(n), table.F(lnN, 2),
			table.F(conn.Mean(), 2), table.F(conn.CI95(), 2),
			table.F(conn.Mean()/lnN, 3),
			table.F(res.Rate("tdGEconn"), 3),
		)
	}
	fit := stats.Fit(xs, ys)
	tb.AddNote("fit TD = %.2f + %.2f·ln n (R²=%.3f); Theorem 4 predicts TD ≤ γ·ln n with γ > 1",
		fit.Alpha, fit.Beta, fit.R2)
	tb.AddNote("diameters over ≤%d sampled sources per instance; trials=%d seed=%d", maxSources, trials, cfg.Seed)
	lb.AddNote("conn-time = min k with the ≤k-label subgraph strongly connected; TD can never beat it")

	fig := table.Plot("Figure E1: TD vs ln n (each * one size; line should be ~γ·ln n)",
		60, 14, table.Series{Name: "TD(n)", X: xs, Y: ys})
	return Result{Tables: []*table.Table{tb, lb}, Figures: []string{fig}}
}
