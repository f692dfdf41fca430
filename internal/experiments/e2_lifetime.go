package experiments

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/table"
)

// E2Lifetime measures how the temporal diameter of the uniform random
// temporal clique scales with the lifetime a = c·n: Theorem 5 predicts
// TD = Ω((a/n)·ln n) once a ≫ n, so TD divided by that scale should
// stabilize around a constant ≥ 1 — a dependence the random phone-call
// model cannot express.
func E2Lifetime(cfg Config) Result {
	n := 128
	cs := []int{1, 2, 4, 8, 16}
	trials := 25
	if cfg.Quick {
		n = 64
		cs = []int{1, 2, 4}
		trials = 8
	}
	g := graph.Clique(n, true)

	tb := table.New(
		"E2: temporal diameter vs lifetime a = c·n on the directed URT clique (Theorem 5)",
		"c", "a", "TD mean", "±95%", "(a/n)·ln n", "TD / scale", "all-reach rate",
	)
	var xs, ys []float64
	for _, c := range cs {
		a := c * n
		res := cfg.run(nil, trials, cfg.Seed+uint64(c)<<8, uniform(a, 1), g, func(trial int, r *rng.Stream, draw sim.Draw) sim.Metrics {
			net := draw(r)
			d := serialDiameter(net, 128, r)
			m := sim.Metrics{"reach": 0}
			if d.AllReachable {
				m["reach"] = 1
				m["td"] = float64(d.Max)
			}
			return m
		})
		td := res.Sample("td")
		scale := core.LifetimeLowerBound(n, a)
		tb.AddRow(
			table.I(c), table.I(a),
			table.F(td.Mean(), 1), table.F(td.CI95(), 1),
			table.F(scale, 1),
			table.F(td.Mean()/scale, 3),
			table.F(res.Rate("reach"), 3),
		)
		xs = append(xs, float64(a))
		ys = append(ys, td.Mean())
	}
	tb.AddNote("n=%d fixed; Theorem 5: TD = Ω((a/n)·ln n), so TD/scale should flatten to a constant ≥ 1", n)
	tb.AddNote("trials=%d seed=%d", trials, cfg.Seed)

	fig := table.Plot("Figure E2: TD grows linearly with lifetime a (n fixed)",
		60, 14, table.Series{Name: "TD(a)", X: xs, Y: ys})
	return Result{Tables: []*table.Table{tb}, Figures: []string{fig}}
}
