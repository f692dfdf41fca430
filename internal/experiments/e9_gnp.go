package experiments

import (
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/table"
)

// E9GnpConnectivity validates the Erdős–Rényi substrate both Theorem 5 and
// the Ω(log n) remark stand on: G(n, p) with p = c·ln n/n flips from
// almost-surely disconnected to almost-surely connected at c = 1, and the
// transition sharpens as n grows.
func E9GnpConnectivity(cfg Config) Result {
	ns := []int{128, 512, 2048}
	cs := []float64{0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0}
	trials := 60
	if cfg.Quick {
		ns = []int{128, 512}
		cs = []float64{0.5, 1.0, 1.5}
		trials = 15
	}

	tb := table.New(
		"E9: G(n,p) connectivity at p = c·ln n/n (Erdős–Rényi threshold)",
		"n", "c", "p", "Pr[connected]", "mean components",
	)
	series := make([]table.Series, 0, len(ns))
	for _, n := range ns {
		var xs, ys []float64
		for _, c := range cs {
			p := c * math.Log(float64(n)) / float64(n)
			res := cfg.run(nil, trials, cfg.Seed+uint64(n)<<18+uint64(c*64), nil, nil, func(trial int, r *rng.Stream, _ sim.Draw) sim.Metrics {
				g := graph.Gnp(n, p, false, r)
				_, comps := graph.ConnectedComponents(g)
				conn := 0.0
				if comps == 1 {
					conn = 1
				}
				return sim.Metrics{"conn": conn, "comps": float64(comps)}
			})
			tb.AddRow(
				table.I(n), table.F(c, 2), table.F(p, 5),
				table.F(res.Rate("conn"), 3),
				table.F(res.Sample("comps").Mean(), 2),
			)
			xs = append(xs, c)
			ys = append(ys, res.Rate("conn"))
		}
		series = append(series, table.Series{Name: "n=" + table.I(n), X: xs, Y: ys})
	}
	tb.AddNote("the c=1 column should sit mid-transition and sharpen with n — the threshold Theorem 5's proof invokes")
	tb.AddNote("trials=%d seed=%d", trials, cfg.Seed)

	fig := table.Plot("Figure E9: connectivity probability vs c (threshold at c=1)", 60, 14, series...)
	return Result{Tables: []*table.Table{tb}, Figures: []string{fig}}
}
