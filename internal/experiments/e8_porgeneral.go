package experiments

import (
	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/table"
)

// E8PoRGeneral estimates r(n) per family and compares the measured Price
// of Randomness against Theorem 8's upper bound
// (2·d·ln n)·m/(n−1). OPT is bracketed by [n−1, 4(n−1)] (assign.OptBounds:
// spanning-structure lower bound, double-Euler-tour upper bound), giving a
// PoR interval; the paper's bound uses the n−1 side.
func E8PoRGeneral(cfg Config) Result {
	trials := 30
	if cfg.Quick {
		trials = 10
	}

	tb := table.New(
		"E8: Price of Randomness bounds across families (Theorem 8)",
		"family", "n", "m", "d", "r(n) est", "thm7 r", "OPT in", "PoR in", "thm8 bound", "within bound",
	)
	for _, fam := range familiesFor(cfg) {
		if cfg.cancelled() {
			break
		}
		n := fam.g.N()
		m := fam.g.M()
		thm7 := core.TheoremSevenR(n, fam.diam)
		rMax := 4 * thm7
		r, ok := core.EstimateR(cfg.ctx(), fam.g, n, core.WHPTarget(n), trials, cfg.Seed^0xE8+uint64(n)<<16, rMax)
		rOut := table.I(r)
		if !ok {
			rOut = ">" + rOut
		}
		optLo, optHi := assign.OptBounds(fam.g)
		porLo := core.PoR(m, r, optHi)
		porHi := core.PoR(m, r, optLo)
		bound := core.TheoremEightPoRBound(n, m, fam.diam)
		within := "yes"
		if porHi > bound {
			within = "no"
		}
		tb.AddRow(
			fam.name, table.I(n), table.I(m), table.I(fam.diam),
			rOut, table.I(thm7),
			"["+table.I(optLo)+","+table.I(optHi)+"]",
			"["+table.F(porLo, 1)+","+table.F(porHi, 1)+"]",
			table.F(bound, 1),
			within,
		)
	}
	tb.AddNote("PoR interval from OPT ∈ [n−1, 4(n−1)]; Theorem 8's bound divides by the n−1 side, so compare it to the interval's top")
	tb.AddNote("within bound should be 'yes' everywhere: measured r̂ ≤ Theorem 7's 2·d·ln n with slack")
	tb.AddNote("trials=%d per bisection probe, seed=%d", trials, cfg.Seed)

	// The OPT upper bound rests on the DoubleTour witness (lifetime
	// 4(n−1)); re-validate it on every family as a sanity note.
	okAll := true
	for _, fam := range familiesFor(cfg) {
		lab, lifetime := assign.DoubleTour(fam.g)
		if !treachOf(fam.g, lifetime, lab) {
			okAll = false
		}
	}
	tb.AddNote("double-tour deterministic witness satisfies Treach on every family: %v", okAll)
	return Result{Tables: []*table.Table{tb}}
}
