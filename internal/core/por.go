package core

import (
	"context"
	"math"

	"repro/internal/avail"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/temporal"
)

// Price of Randomness (Definitions 7–8). r(n) is the least number of
// uniform random labels per edge for which the random assignment strongly
// guarantees temporal reachability whp; PoR(G) = m·r(n)/OPT compares that
// against the cheapest deterministic reachability-preserving assignment.
// This file estimates r(n) by Monte-Carlo threshold search and evaluates
// the paper's bounds.

// ReachabilityRate estimates Pr[Treach] when every edge of g receives r
// independent uniform labels from {1,…,lifetime}: the success fraction over
// the given number of trials, with its Wilson 95% confidence interval. It
// panics unless r >= 1 and trials >= 1. Cancelling ctx stops the
// Monte-Carlo early and the rate covers completed trials only (the
// confidence interval still divides by the requested trial count, so a
// cancelled probe under-reports — callers abandon the search anyway). The
// trials relabel one network per worker in place (sim.BatchRunner).
func ReachabilityRate(ctx context.Context, g *graph.Graph, lifetime, r, trials int, seed uint64) (rate, lo, hi float64) {
	return reachabilityRate(ctx, nil, g, lifetime, r, trials, seed)
}

// reachabilityRate is ReachabilityRate drawing its worker networks from
// free, g's free list (nil: a private one).
func reachabilityRate(ctx context.Context, free *sim.FreeList, g *graph.Graph, lifetime, r, trials int, seed uint64) (rate, lo, hi float64) {
	if r < 1 {
		panic("core: ReachabilityRate needs r >= 1")
	}
	if trials < 1 {
		panic("core: ReachabilityRate needs trials >= 1")
	}
	b := sim.BatchRunner{Model: avail.NewIID(dist.NewUniform(lifetime), r), Substrate: g, Seed: seed, FreeList: free}
	res, _ := b.Run(ctx, 0, trials, func(_ int, stream *rng.Stream, draw sim.Draw) sim.Metrics {
		ok := 0.0
		if temporal.SatisfiesTreachSerial(draw(stream), nil) {
			ok = 1
		}
		return sim.Metrics{"ok": ok}
	})
	successes := int(math.Round(res.Sample("ok").Sum()))
	lo, hi = stats.BinomialCI(successes, trials)
	return res.Rate("ok"), lo, hi
}

// EstimateR finds the smallest r ≤ rMax whose empirical Pr[Treach] reaches
// target, by doubling followed by binary search. Success probability is
// monotone in r (extra labels only add journeys), so the bisection is
// sound up to Monte-Carlo noise; use enough trials that the phase
// transition is sharp relative to the binomial error. The second result is
// false when even rMax does not reach the target. It panics unless target
// is in (0, 1], trials >= 1 and rMax >= 1. On cancellation of ctx the
// search aborts between (or inside) probes and returns its current upper
// bracket with ok=false; callers must treat the pair as "not found".
func EstimateR(ctx context.Context, g *graph.Graph, lifetime int, target float64, trials int, seed uint64, rMax int) (int, bool) {
	if target <= 0 || target > 1 {
		panic("core: EstimateR target must be in (0,1]")
	}
	if trials < 1 {
		panic("core: EstimateR needs trials >= 1")
	}
	if rMax < 1 {
		panic("core: EstimateR needs rMax >= 1")
	}
	// Every probe's labels share the lifetime, so all of them relabel one
	// pool of worker networks.
	free := new(sim.FreeList)
	rate := func(r int) float64 {
		// Derive a distinct seed per r so searches don't reuse instances.
		got, _, _ := reachabilityRate(ctx, free, g, lifetime, r, trials, seed+uint64(r)*0x9e37)
		return got
	}
	// Doubling phase.
	hi := 1
	for rate(hi) < target {
		if ctx.Err() != nil {
			return hi, false
		}
		if hi >= rMax {
			return rMax, false
		}
		hi *= 2
		if hi > rMax {
			hi = rMax
		}
	}
	lo := hi / 2 // rate(lo) known < target when lo >= 1; lo==0 means hi==1
	for lo+1 < hi {
		if ctx.Err() != nil {
			return hi, false
		}
		mid := (lo + hi) / 2
		if rate(mid) >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, ctx.Err() == nil
}

// WHPTarget returns the paper's "with high probability" success threshold
// 1 − 1/n for an n-vertex graph (the c = 1 case of 1 − n^{-c}).
func WHPTarget(n int) float64 {
	if n < 2 {
		return 1
	}
	return 1 - 1/float64(n)
}

// PoR computes m·r/opt, the Price of Randomness for a measured r and a
// known or bounded OPT.
func PoR(m, r, opt int) float64 {
	if opt <= 0 {
		return math.NaN()
	}
	return float64(m) * float64(r) / float64(opt)
}

// TheoremSevenR returns the sufficient per-edge label count of Theorem 7,
// 2·d·ln n (the proof's r > 2·d(G)·log n with natural logarithm), rounded
// up.
func TheoremSevenR(n, diam int) int {
	if n < 2 {
		return 1
	}
	r := 2 * float64(diam) * math.Log(float64(n))
	return int(math.Ceil(r))
}

// TheoremEightPoRBound returns the Theorem 8 upper bound
// (2·d·ln n)·m/(n−1) on PoR(G) (the ε slack omitted).
func TheoremEightPoRBound(n, m, diam int) float64 {
	if n < 2 {
		return 0
	}
	return 2 * float64(diam) * math.Log(float64(n)) * float64(m) / float64(n-1)
}

// BoxCoverageFailureBound returns the union-bound probability
// d·(1−λ/q)^r ≤ d·e^{−λr/q} that some box of a single edge receives no
// label (the quantity the Theorem 7 proof drives below n^{−2}). A theorem
// scale kept for a table of the paper's claims checked as executable
// assertions; only por_test.go calls it today.
func BoxCoverageFailureBound(q, d, r int) float64 {
	if d <= 0 || q < d {
		return 0
	}
	lambda := float64(q / d)
	return float64(d) * math.Pow(1-lambda/float64(q), float64(r))
}
