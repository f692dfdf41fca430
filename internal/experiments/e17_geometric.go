package experiments

import (
	"math"

	"repro/internal/avail"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/temporal"
)

// E17Geometric runs the dynamic random geometric graph scenario: n points
// random-walk on the unit torus and an edge is live at slot t iff its
// endpoints are within radius r. The radius sweeps multiples of the static
// connectivity threshold r_c = sqrt(ln n/(π·n)), the geometric analogue of
// E9's Erdős–Rényi c·ln n/n sweep.
//
// Mobility shifts the threshold: below r_c a *static* geometric graph is
// typically disconnected, but over a lifetime of a slots the walks carry
// links past many pairs, so the union support graph densifies and temporal
// reachability turns on below the static threshold — the
// Díaz–Mitsche–Pérez observation that dynamics buy connectivity — while the
// temporal diameter inflates as journeys wait for encounters. MP overrides:
// radius (absolute, bypassing the sweep), step (walk half-range).
func E17Geometric(cfg Config) Result {
	n := 100
	a := 64
	trials := 20
	if cfg.Quick {
		n = 48
		a = 32
		trials = 8
	}
	step := cfg.mp("step", 0.05)
	rc := math.Sqrt(math.Log(float64(n)) / (math.Pi * float64(n)))
	multipliers := []float64{0.7, 1.0, 1.3, 1.8, 2.5}
	// Scenario models draw their own support graph per trial; the substrate
	// contributes only the vertex count.
	substrate := graph.NewBuilder(n, false).Build()

	tb := table.New(
		"E17: dynamic geometric scenario — reachability vs radius (r_c = sqrt(ln n/(π·n)))",
		"r/r_c", "radius", "support m", "labels/edge", "Pr[Treach]", "all-reach rate", "TD mean (reached)",
	)
	var xs, ys []float64
	for mi, mult := range multipliers {
		radius := mult * rc
		if v, ok := cfg.MP["radius"]; ok {
			radius = v
		}
		if radius >= 0.5 {
			radius = 0.49
		}
		m, err := avail.NewGeometric(a, radius, step)
		if err != nil {
			tb.AddNote("radius %.3g skipped: %v", radius, err)
			continue
		}
		res := cfg.run(nil, trials, cfg.Seed+uint64(mi+1)<<15, m, substrate, func(trial int, stream *rng.Stream, draw sim.Draw) sim.Metrics {
			net := draw(stream)
			sup := net.Graph()
			mt := sim.Metrics{
				"m":      float64(sup.M()),
				"treach": 0,
				"reach":  0,
			}
			if sup.M() > 0 {
				mt["lpe"] = float64(net.LabelCount()) / float64(sup.M())
			}
			if temporal.SatisfiesTreachSerial(net, nil) {
				mt["treach"] = 1
			}
			d := serialDiameter(net, 64, stream)
			if d.AllReachable {
				mt["reach"] = 1
				mt["td"] = float64(d.Max)
			}
			return mt
		})
		tb.AddRow(
			table.F(mult, 2), table.F(radius, 4),
			table.F(res.Sample("m").Mean(), 1),
			table.F(res.Sample("lpe").Mean(), 2),
			table.F(res.Rate("treach"), 3),
			table.F(res.Rate("reach"), 3),
			table.F(res.Sample("td").Mean(), 2),
		)
		xs = append(xs, mult)
		ys = append(ys, res.Rate("reach"))
		if _, ok := cfg.MP["radius"]; ok {
			tb.AddNote("radius overridden to %.4g: multiplier column is nominal", radius)
			break
		}
	}
	tb.AddNote("n=%d points, lifetime a=%d, step=%.3g; support m counts pairs ever within radius", n, a, step)
	tb.AddNote("Pr[Treach] asks temporal reachability to match the support graph's static reachability;")
	tb.AddNote("mobility densifies the support union, so reachability turns on below the static threshold r_c")
	tb.AddNote("trials=%d seed=%d", trials, cfg.Seed)

	fig := table.Plot("Figure E17: all-reach rate vs r/r_c (mobility shifts the static threshold)", 60, 14,
		table.Series{Name: "all-reach", X: xs, Y: ys})
	return Result{Tables: []*table.Table{tb}, Figures: []string{fig}}
}
