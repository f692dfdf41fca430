package experiments

import (
	"math"

	"repro/internal/avail"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/table"
)

// E13Remark1 validates Remark 1: the undirected normalized URT clique (one
// label per undirected edge, crossable both ways) behaves like the
// directed one — same Θ(log n) temporal diameter up to constants. The
// directed model assigns independent labels to (u,v) and (v,u); the
// undirected one shares a single label both ways, halving the label budget
// yet barely moving the diameter, because journeys only need *some*
// increasing sequence and edge reuse in both directions is rare on
// foremost routes.
func E13Remark1(cfg Config) Result {
	ns := []int{32, 64, 128, 256}
	trials := 30
	if cfg.Quick {
		ns = []int{32, 64}
		trials = 8
	}

	tb := table.New(
		"E13: directed vs undirected normalized URT clique (Remark 1)",
		"n", "ln n", "TD directed", "TD undirected", "ratio und/dir", "labels dir", "labels und",
	)
	for _, n := range ns {
		gd := graph.Clique(n, true)
		gu := graph.Clique(n, false)
		res := cfg.run(nil, trials, cfg.Seed^0xE13+uint64(n), uniform(n, 1), gd, func(trial int, r *rng.Stream, draw sim.Draw) sim.Metrics {
			netD := draw(r)
			m := sim.Metrics{}
			dD := serialDiameter(netD, 128, r)
			if dD.AllReachable {
				m["tdDir"] = float64(dD.Max)
			}
			// The undirected twin is a second network of the same trial,
			// drawn after the directed instance's source sample.
			dU := serialDiameter(avail.Network(uniform(n, 1), gu, r), 128, r)
			if dU.AllReachable {
				m["tdUnd"] = float64(dU.Max)
			}
			return m
		})
		dir := res.Sample("tdDir")
		und := res.Sample("tdUnd")
		tb.AddRow(
			table.I(n), table.F(math.Log(float64(n)), 2),
			table.F(dir.Mean(), 2), table.F(und.Mean(), 2),
			table.F(und.Mean()/dir.Mean(), 3),
			table.I(gd.M()), table.I(gu.M()),
		)
	}
	tb.AddNote("Remark 1: the undirected analysis 'is not significantly affected' — the ratio column should hover near 1")
	tb.AddNote("undirected instances use half the independent labels (one per edge, usable both ways)")
	tb.AddNote("trials=%d seed=%d", trials, cfg.Seed)
	return Result{Tables: []*table.Table{tb}}
}
