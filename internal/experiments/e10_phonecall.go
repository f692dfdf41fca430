package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/phonecall"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/table"
)

// E10PhoneCall puts the paper's model next to the random phone-call model
// it is compared against in §1.1: PUSH and PUSH-PULL rumor spreading on the
// clique versus flooding the URT clique. All three broadcast in Θ(log n),
// but the phone-call protocols spend Θ(n log n)/Θ(n log log n)
// transmissions by choosing fresh random partners each round, while the
// temporal network fixes one random moment per link up front (and pays
// Θ(n²) sends if flooded obliviously).
func E10PhoneCall(cfg Config) Result {
	ns := []int{64, 128, 256, 512, 1024}
	trials := 25
	if cfg.Quick {
		ns = []int{64, 128, 256}
		trials = 8
	}

	tb := table.New(
		"E10: phone-call baselines vs URT-clique flooding (§1.1)",
		"n", "log₂n+ln n", "push rounds", "pushpull rounds", "flood time", "push tx", "pushpull tx", "flood tx",
	)
	for _, n := range ns {
		gu := graph.Clique(n, false)
		gd := graph.Clique(n, true)
		res := cfg.run(nil, trials, cfg.Seed+uint64(n)*11, uniform(n, 1), gd, func(trial int, r *rng.Stream, draw sim.Draw) sim.Metrics {
			m := sim.Metrics{}
			src := r.Intn(n)
			pu := phonecall.Push(gu, src, 0, r)
			if pu.All {
				m["pushRounds"] = float64(pu.Rounds)
				m["pushTx"] = float64(pu.Transmissions)
			}
			pp := phonecall.PushPull(gu, src, 0, r)
			if pp.All {
				m["ppRounds"] = float64(pp.Rounds)
				m["ppTx"] = float64(pp.Transmissions)
			}
			sp := core.Spread(draw(r), src)
			if sp.All {
				m["floodTime"] = float64(sp.CompletionTime)
				m["floodTx"] = float64(sp.Transmissions)
			}
			return m
		})
		frieze := math.Log2(float64(n)) + math.Log(float64(n))
		tb.AddRow(
			table.I(n), table.F(frieze, 1),
			table.F(res.Sample("pushRounds").Mean(), 1),
			table.F(res.Sample("ppRounds").Mean(), 1),
			table.F(res.Sample("floodTime").Mean(), 1),
			table.F(res.Sample("pushTx").Mean(), 0),
			table.F(res.Sample("ppTx").Mean(), 0),
			table.F(res.Sample("floodTx").Mean(), 0),
		)
	}
	tb.AddNote("push rounds track the Frieze–Grimmett log₂n+ln n; flood time tracks γ·ln n — all logarithmic")
	tb.AddNote("transmissions separate the models: push Θ(n log n), push-pull Θ(n log log n), oblivious flooding Θ(n²)")
	tb.AddNote("the phone-call model cannot express E2's lifetime dependence — that contrast is the paper's point")
	tb.AddNote("trials=%d seed=%d", trials, cfg.Seed)
	return Result{Tables: []*table.Table{tb}}
}
