package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/avail"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/table"
	"repro/internal/temporal"
)

// e18Models enumerates E18's availability families in fixed order: "iid"
// is memoryless per-slot availability p (a constant-p(t) schedule — every
// slot of every edge is an independent Bernoulli(p) label), "markov" runs
// the correlated on/off chain at stationary availability p with mean
// on-run length runlen, so both spend the same expected budget p·a per
// edge and differ only in correlation.
func e18Models(runlen float64) []struct {
	name string
	mk   func(a int, p float64) (avail.Model, error)
} {
	return []struct {
		name string
		mk   func(a int, p float64) (avail.Model, error)
	}{
		{"iid", func(a int, p float64) (avail.Model, error) {
			return avail.NewRamp(a, p, p)
		}},
		{"markov", func(a int, p float64) (avail.Model, error) {
			return avail.NewMarkov(a, p, runlen)
		}},
	}
}

// e18Prec is the requested precision on each P(connected) estimate.
func e18Prec(quick bool) sweep.Precision {
	if quick {
		return sweep.Precision{Abs: 0.12, MinTrials: 8, MaxTrials: 96, Batch: 16}
	}
	return sweep.Precision{Abs: 0.05, MinTrials: 16, MaxTrials: 600, Batch: 32}
}

// e18Grid is the coarse (n, c) grid each model is swept over before the
// bisection refines c*; the c axis spans the transition.
func e18Grid(ns []int, cs []float64) sweep.Grid {
	nv := make([]float64, len(ns))
	for i, n := range ns {
		nv[i] = float64(n)
	}
	return sweep.Grid{Axes: []sweep.Axis{
		{Name: "n", Values: nv},
		{Name: "c", Values: cs},
	}}
}

// e18Source measures temporal connectivity for one grid cell: a directed
// clique on n vertices with lifetime a = n, availability model mk at
// per-slot probability p = c·ln n/n, one network per trial — 1 when every
// ordered pair is temporally reachable. The cell's model is built once and
// every trial relabels a per-worker clique in place (sim.BatchRunner); the
// differential tests pin the estimates against a per-trial rebuild.
// Infeasible cells (e.g. markov alpha > 1, reachable only if the bracket
// expands far above c = 1) observe NaN, which makes the estimator fail the
// cell loudly instead of recording a confident false "disconnected". The
// caller's substrates carry, per n, the clique, its static-reachability
// cache and its worker free list.
func e18Source(subs map[int]e18Substrate,
	mk func(a int, p float64) (avail.Model, error)) sweep.CellSource {
	return func(values map[string]float64, seed uint64, workers int, onTrial func()) sweep.Source {
		n := int(values["n"])
		p := values["c"] * math.Log(float64(n)) / float64(n)
		if p > 1 {
			p = 1
		}
		m, err := mk(n, p)
		if err != nil {
			return func(ctx context.Context, start, count int) ([]float64, error) {
				nans := make([]float64, count)
				for i := range nans {
					nans[i] = math.NaN()
				}
				return nans, ctx.Err()
			}
		}
		sub := subs[n]
		b := sim.BatchRunner{Model: m, Substrate: sub.g, Seed: seed, Workers: workers, OnTrial: onTrial, FreeList: sub.free}
		sr := sub.static
		return func(ctx context.Context, start, count int) ([]float64, error) {
			return b.ObserveFrom(ctx, start, count, func(trial int, net *temporal.Network, r *rng.Stream) float64 {
				if temporal.SatisfiesTreachStatic(net, sr, nil) {
					return 1
				}
				return 0
			})
		}
	}
}

// e18Substrate is one clique of E18's grid with what every cell and
// bisection probe at its n shares: the static half of Treach, which never
// changes across relabels, and one free list of worker cliques, which both
// families' models relabel (they share the lifetime a = n).
type e18Substrate struct {
	g      *graph.Graph
	static *temporal.StaticReach
	free   *sim.FreeList
}

func newE18Substrate(n int) e18Substrate {
	g := graph.Clique(n, true)
	return e18Substrate{g: g, static: temporal.NewStaticReach(g), free: new(sim.FreeList)}
}

// E18ConnectivityThreshold estimates the temporal-connectivity threshold
// c* in p = c·ln n/n as an adaptive Monte-Carlo measurement: for each
// availability family (memoryless and Markov-correlated, equal budget) and
// each n, a CI-driven sweep maps P(connected) over a coarse c grid with
// Wilson intervals at the requested precision, then threshold bisection
// locates the c where P(connected) crosses 1/2 and re-estimates the
// crossing point to the same precision.
//
// This is the paper's connectivity-threshold statement turned from a table
// to rerun into a question answered to a stated accuracy. The c* column is
// the diagnostic: how it moves with n says whether c·ln n/n is the right
// normalization for *temporal* connectivity (empirically c* still falls
// with n — the clique offers ever more alternate routes, so the per-edge
// budget at the transition shrinks), while correlation (runlen > 1) shifts
// c* up ~3×: clumped labels strand edges with no usable slot.
// MP override: runlen (Markov persistence, default 4).
//
// Everything is bit-deterministic per (Seed, Quick, MP): per-(model,n)
// seeds derive via sweep.CellSeed, trials via the sim stream discipline,
// so Workers never changes a number (pinned by the determinism tests).
func E18ConnectivityThreshold(cfg Config) Result {
	ns := []int{64, 96, 128}
	cs := []float64{0.02, 0.06, 0.12, 0.25, 0.5, 1}
	tol := 0.01
	if cfg.Quick {
		ns = []int{32, 48}
		cs = []float64{0.05, 0.15, 0.4, 1}
		tol = 0.02
	}
	prec := e18Prec(cfg.Quick)
	runlen := cfg.mp("runlen", 4)
	subs := make(map[int]e18Substrate, len(ns))
	for _, n := range ns {
		subs[n] = newE18Substrate(n)
	}

	grid := table.New(
		"E18a: P(temporally connected) on the c grid, p = c·ln n/n (adaptive Wilson estimates)",
		"model", "n", "c", "p", "P[conn]", "wilson lo", "wilson hi", "trials", "met precision",
	)
	thr := table.New(
		"E18b: estimated connectivity threshold c* (P[conn] = 1/2), p = c·ln n/n",
		"model", "n", "c*", "bracket lo", "bracket hi", "p*", "P[conn] at c*", "±CI", "trials", "evals", "converged",
	)
	series := make([]table.Series, 0, 2*len(ns))

	for mi, fam := range e18Models(runlen) {
		if cfg.cancelled() {
			break
		}
		src := e18Source(subs, fam.mk)

		// Phase 1: the coarse resumable grid sweep, batched — each cell
		// relabels per-worker cliques in place.
		s := sweep.Sweep{
			Grid:    e18Grid(ns, cs),
			Kind:    sweep.Proportion,
			Prec:    prec,
			Seed:    sweep.CellSeed(cfg.Seed, 1000+mi),
			Workers: cfg.Workers,
			OnTrial: cfg.Progress,
			Source:  src,
		}
		cp, err := s.Run(cfg.ctx(), nil, nil)
		if err != nil {
			grid.AddNote("%s sweep stopped early: %v", fam.name, err)
		}
		byN := map[int]*table.Series{}
		for _, cell := range cp.Cells {
			n := int(cell.Values["n"])
			c := cell.Values["c"]
			grid.AddRow(
				fam.name, table.I(n), table.F(c, 3),
				table.F(c*math.Log(float64(n))/float64(n), 5),
				table.F(cell.Est.Point, 3),
				table.F(cell.Est.Lo, 3), table.F(cell.Est.Hi, 3),
				table.I(cell.Est.N), fmt.Sprintf("%t", cell.Est.Converged),
			)
			sr := byN[n]
			if sr == nil {
				sr = &table.Series{Name: fmt.Sprintf("%s n=%d", fam.name, n)}
				byN[n] = sr
			}
			sr.X = append(sr.X, c)
			sr.Y = append(sr.Y, cell.Est.Point)
		}
		for _, n := range ns {
			if sr := byN[n]; sr != nil {
				series = append(series, *sr)
			}
		}

		// Phase 2: bisect c* per n, under common random numbers — every
		// evaluation at this (model, n) reuses the same per-trial streams,
		// so the empirical response is monotone in c up to model noise.
		for ni, n := range ns {
			if cfg.cancelled() {
				break
			}
			a := sweep.Adaptive{
				Seed:    sweep.CellSeed(cfg.Seed, 2000+10*mi+ni),
				Workers: cfg.Workers,
				Kind:    sweep.Proportion,
				Prec:    prec,
				OnTrial: cfg.Progress,
			}
			cr, last, trialsSpent, err := sweep.Threshold{
				Target: 0.5, Lo: cs[0], Hi: cs[len(cs)-1],
				Tol: tol, MaxEvals: 24, Expand: 4,
			}.FindAdaptiveSource(cfg.ctx(), a, func(c float64) sweep.Source {
				// One batched source per probe: the probe's model is built
				// once, its trials relabel per-worker cliques in place, and
				// every probe shares a.Seed — common random numbers, as
				// before.
				vals := map[string]float64{"n": float64(n), "c": c}
				return src(vals, a.Seed, a.Workers, a.OnTrial)
			})
			if err != nil {
				thr.AddNote("%s n=%d: %v", fam.name, n, err)
				continue
			}
			thr.AddRow(
				fam.name, table.I(n),
				table.F(cr.X, 4), table.F(cr.Lo, 4), table.F(cr.Hi, 4),
				table.F(cr.X*math.Log(float64(n))/float64(n), 5),
				table.F(last.Point, 3), table.F(last.Half, 3),
				table.I(trialsSpent), table.I(cr.Evals),
				fmt.Sprintf("%t", cr.Converged && last.Converged),
			)
		}
	}

	grid.AddNote("directed clique, lifetime a = n; each estimate stops when its Wilson half-width ≤ %g (cap %d trials)", prec.Abs, prec.MaxTrials)
	grid.AddNote("iid: every slot an independent Bernoulli(p) label; markov: on/off chain at stationarity pi=p, runlen=%g — equal budget p·a", runlen)
	thr.AddNote("c* from bracket+bisection of P[conn] across c at target 1/2, knob tolerance %g, common random numbers per (model,n)", tol)
	thr.AddNote("±CI is the Wilson half-width of the re-estimate at c*; 'converged' requires both the bracket and that CI to meet spec")
	thr.AddNote("correlation shifts c* up: clumped labels strand edges with no usable slot, so connectivity needs more budget")
	thr.AddNote("seed=%d quick=%t", cfg.Seed, cfg.Quick)

	fig := table.Plot("Figure E18: P(temporally connected) vs c in p = c·ln n/n", 64, 16, series...)
	return Result{Tables: []*table.Table{grid, thr}, Figures: []string{fig}}
}
