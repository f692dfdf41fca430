package experiments

import (
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/table"
)

// E11MultiLabel is the multi-label extension the paper's §2 note leaves
// open: give every clique edge r uniform labels instead of one and watch
// the temporal diameter fall — availability is bought per link, and the
// marginal label is worth less each time.
func E11MultiLabel(cfg Config) Result {
	n := 256
	rs := []int{1, 2, 4, 8, 16}
	trials := 25
	if cfg.Quick {
		n = 96
		rs = []int{1, 2, 4}
		trials = 8
	}
	g := graph.Clique(n, true)
	free := new(sim.FreeList)

	tb := table.New(
		"E11: URT clique temporal diameter vs labels per edge (multi-label ablation)",
		"r", "labels total", "TD mean", "±95%", "TD/ln n", "all-reach rate",
	)
	lnN := math.Log(float64(n))
	var xs, ys []float64
	for _, r := range rs {
		res := cfg.run(free, trials, cfg.Seed+uint64(r)<<10, uniform(n, r), g, func(trial int, stream *rng.Stream, draw sim.Draw) sim.Metrics {
			net := draw(stream)
			d := serialDiameter(net, 128, stream)
			m := sim.Metrics{"reach": 0}
			if d.AllReachable {
				m["reach"] = 1
				m["td"] = float64(d.Max)
			}
			return m
		})
		td := res.Sample("td")
		tb.AddRow(
			table.I(r), table.I(r*g.M()),
			table.F(td.Mean(), 2), table.F(td.CI95(), 2),
			table.F(td.Mean()/lnN, 3),
			table.F(res.Rate("reach"), 3),
		)
		xs = append(xs, float64(r))
		ys = append(ys, td.Mean())
	}
	tb.AddNote("n=%d fixed; doubling availability shaves a roughly constant factor off TD — diminishing returns", n)
	tb.AddNote("trials=%d seed=%d", trials, cfg.Seed)

	fig := table.Plot("Figure E11: TD vs labels per edge", 60, 12,
		table.Series{Name: "TD(r)", X: xs, Y: ys})
	return Result{Tables: []*table.Table{tb}, Figures: []string{fig}}
}
