package experiments

import (
	"fmt"
	"strings"

	"repro/internal/avail"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/temporal"
)

// E16TimeVarying sweeps the temporal-connectivity threshold under
// time-varying availability p(t): ramp, periodic and burst schedules, each
// normalized to the same expected label budget c per edge, on the clique.
//
// The shapes separate sharply at equal mass. A journey needs strictly
// increasing labels across hops, so what matters is not how much mass a
// schedule spends but how much of the timeline it keeps usable: the ramp
// and the periodic schedule spread mass across the lifetime and reach
// everyone at modest c, while the burst compresses the same mass into a
// 20%-wide window — labels inside the window are plentiful but nearly
// simultaneous, so multi-hop journeys run out of strictly larger labels
// (the E12b starvation effect relocated from label *values* to label
// *times*). Config.Model selects a single schedule (pt-ramp, pt-periodic,
// pt-burst; pt = ramp); MP overrides the schedule knobs.
func E16TimeVarying(cfg Config) Result {
	n := 96
	trials := 30
	budgets := []float64{0.05, 0.1, 0.25, 0.5, 1, 2}
	if cfg.Quick {
		n = 48
		trials = 10
		budgets = []float64{0.1, 0.25, 0.5, 1}
	}
	a := n
	g := graph.Clique(n, true)
	free := new(sim.FreeList)

	type shape struct {
		name string
		mk   func(pbar float64) (avail.TimeVarying, error)
	}
	shapes := []shape{
		{"pt-ramp", func(pbar float64) (avail.TimeVarying, error) {
			// Mean (p0+p1)/2 = pbar with a 1:5 tilt toward late slots.
			return avail.NewRamp(a, cfg.mp("p0", pbar/3), cfg.mp("p1", 5*pbar/3))
		}},
		{"pt-periodic", func(pbar float64) (avail.TimeVarying, error) {
			// Full cycles average the sinusoid out, keeping the mean at base.
			return avail.NewPeriodic(a, cfg.mp("base", pbar), cfg.mp("amp", 0.8), cfg.mp("cycles", 4))
		}},
		{"pt-burst", func(pbar float64) (avail.TimeVarying, error) {
			// low·0.8a + high·0.2a = pbar·a.
			low := cfg.mp("low", 0.2*pbar)
			high := cfg.mp("high", 5*pbar-4*low)
			return avail.NewBurst(a, low, high, cfg.mp("start", 0.4), cfg.mp("width", 0.2))
		}},
	}
	modelNote := ""
	if cfg.Model != "" {
		want := strings.ToLower(strings.TrimSpace(cfg.Model))
		if want == "pt" {
			want = "pt-ramp"
		}
		kept := shapes[:0]
		for _, s := range shapes {
			if s.name == want {
				kept = append(kept, s)
			}
		}
		if len(kept) > 0 {
			shapes = kept
		} else {
			// A registered but non-pt model (e.g. markov) passed upstream
			// validation; an empty sweep would cache a silently useless
			// result, so run everything and say why.
			modelNote = fmt.Sprintf("model %q is not a pt schedule; running all shapes", cfg.Model)
		}
	}

	tb := table.New(
		"E16: temporal connectivity under time-varying p(t) at equal expected budget",
		"schedule", "c (labels/edge)", "mass/edge", "Pr[Treach]", "TD mean (reached)", "all-reach rate",
	)
	series := make([]table.Series, 0, len(shapes))
	row := 0
	for _, s := range shapes {
		var xs, ys []float64
		for _, c := range budgets {
			row++
			pbar := c / float64(a)
			m, err := s.mk(pbar)
			if err != nil {
				tb.AddNote("%s at c=%g skipped: %v", s.name, c, err)
				continue
			}
			res := cfg.run(free, trials, cfg.Seed+uint64(row)<<13, m, g, func(trial int, stream *rng.Stream, draw sim.Draw) sim.Metrics {
				net := draw(stream)
				mt := sim.Metrics{"treach": 0, "reach": 0}
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
				s.name, table.F(c, 2), table.F(m.Mass(), 2),
				table.F(res.Rate("treach"), 3),
				table.F(res.Sample("td").Mean(), 2),
				table.F(res.Rate("reach"), 3),
			)
			xs = append(xs, c)
			ys = append(ys, res.Rate("treach"))
		}
		series = append(series, table.Series{Name: s.name, X: xs, Y: ys})
	}
	if modelNote != "" {
		tb.AddNote("%s", modelNote)
	}
	tb.AddNote("directed clique n=%d, lifetime a=n; every schedule is normalized to mass c labels/edge", n)
	tb.AddNote("the burst packs its mass into a 0.2·a window: labels are nearly simultaneous, so multi-hop")
	tb.AddNote("journeys starve for strictly increasing labels — E12b's effect moved from label values to label times")
	tb.AddNote("trials=%d seed=%d", trials, cfg.Seed)

	fig := table.Plot(fmt.Sprintf("Figure E16: Pr[Treach] vs budget c (n=%d)", n), 60, 14, series...)
	return Result{Tables: []*table.Table{tb}, Figures: []string{fig}}
}
