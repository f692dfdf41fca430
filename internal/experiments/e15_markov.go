package experiments

import (
	"repro/internal/avail"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/table"
)

// E15MarkovDiameter opens the correlated-availability scenario class: each
// clique edge runs an independent on/off Markov chain at stationary
// availability pi = 1/n — the same one-expected-label-per-edge budget as
// the paper's normalized URT clique of E1 — while the mean on-run length L
// sweeps from 1 (memoryless slots) to 16 (long correlated bursts).
//
// The point of comparison: at fixed budget, persistence *helps* the
// temporal diameter. A run of L consecutive labels behaves like the
// availability window of E14 — any journey arriving next to the edge
// mid-run can cross immediately — whereas the same label mass scattered
// i.i.d. forces waits. The price is reliability: runs also clump the mass,
// so more edges see no "on" slot at all within the lifetime, and the
// all-reach rate decays as L grows. MP overrides: pi (stationary
// availability), runlen (single L instead of the sweep).
func E15MarkovDiameter(cfg Config) Result {
	n := 128
	trials := 25
	if cfg.Quick {
		n = 64
		trials = 8
	}
	g := graph.Clique(n, true)
	free := new(sim.FreeList)
	pi := cfg.mp("pi", 1/float64(n))
	runlens := []float64{1, 2, 4, 8, 16}
	if v, ok := cfg.MP["runlen"]; ok {
		runlens = []float64{v}
	}

	tb := table.New(
		"E15: Markov on/off clique at stationary availability pi (budget pi·a per edge)",
		"runlen L", "TD mean (reached)", "±95%", "all-reach rate", "mean δ finite", "labels/edge",
	)
	for li, L := range runlens {
		m, err := avail.NewMarkov(n, pi, L)
		if err != nil {
			tb.AddNote("runlen %g skipped: %v", L, err)
			continue
		}
		res := cfg.run(free, trials, cfg.Seed+uint64(li+1)<<11, m, g, func(trial int, stream *rng.Stream, draw sim.Draw) sim.Metrics {
			net := draw(stream)
			d := serialDiameter(net, 96, stream)
			mt := sim.Metrics{
				"reach":     0,
				"meanDelta": d.MeanFinite,
				"lpe":       float64(net.LabelCount()) / float64(g.M()),
			}
			if d.AllReachable {
				mt["reach"] = 1
				mt["td"] = float64(d.Max)
			}
			return mt
		})
		td := res.Sample("td")
		tb.AddRow(
			table.F(L, 3),
			table.F(td.Mean(), 2), table.F(td.CI95(), 2),
			table.F(res.Rate("reach"), 3),
			table.F(res.Sample("meanDelta").Mean(), 2),
			table.F(res.Sample("lpe").Mean(), 2),
		)
	}
	tb.AddNote("n=%d (directed clique), lifetime a=n, pi=%.4g: expected budget pi·a ≈ %.3g labels/edge — E1's URTN budget", n, pi, pi*float64(n))
	tb.AddNote("L=1 is (near-)memoryless; growing L turns the same mass into consecutive runs (the E14 window effect)")
	tb.AddNote("persistence speeds journeys that find an on-run but clumps the mass, so the all-reach rate decays with L")
	tb.AddNote("trials=%d seed=%d", trials, cfg.Seed)
	return Result{Tables: []*table.Table{tb}}
}
