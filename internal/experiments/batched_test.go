package experiments

// Differential coverage for the batched sweep execution path: a sweep run
// through SweepTarget.Source (per-worker networks relabeled in place, or
// rebuilt per trial for randomized substrates) must reproduce the
// Observable rebuild path's checkpoint bit-identically, for any worker
// count. Same for E18's source against its observable.

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/avail"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sweep"
	"repro/internal/temporal"
)

// Observable is the per-trial rebuild reference for Source. Each trial
// draws one substrate (randomized families consume the trial stream first;
// deterministic families are built once per size and shared — they never
// touch the stream, so caching cannot perturb trial randomness), one
// labeling, and reports the metric. Cells whose parameters are infeasible
// observe NaN (see cellParams).
func (t SweepTarget) Observable() (sweep.CellObservable, error) {
	t = t.withDefaults()
	if err := t.Validate(sweep.Grid{}); err != nil {
		return nil, err
	}
	var substrates sync.Map // n → *graph.Graph, deterministic families only
	substrate := func(n int, r *rng.Stream) (*graph.Graph, error) {
		if !deterministicFamilies[t.Graph] {
			return graph.Family(t.Graph, n, graph.FamilyOpts{}, r)
		}
		if g, ok := substrates.Load(n); ok {
			return g.(*graph.Graph), nil
		}
		g, err := graph.Family(t.Graph, n, graph.FamilyOpts{}, r)
		if err == nil {
			// Concurrent trials may race to build the same size; both
			// results are identical, so last-store-wins is harmless.
			substrates.Store(n, g)
		}
		return g, err
	}
	return func(values map[string]float64, trial int, r *rng.Stream) float64 {
		n, m, ok := t.cellParams(values)
		if !ok {
			return math.NaN()
		}
		g, err := substrate(n, r)
		if err != nil || g.N() == 0 {
			return math.NaN()
		}
		net := avail.Network(m, g, r)
		return t.measure(net, r)
	}, nil
}

// e18Observable is the per-trial rebuild reference for e18Source: the
// same cell measurement with a fresh avail.Network per trial. cliques maps
// n to a prebuilt substrate and must cover every n the grid can produce.
func e18Observable(cliques map[int]*graph.Graph,
	mk func(a int, p float64) (avail.Model, error)) sweep.CellObservable {
	return func(values map[string]float64, trial int, r *rng.Stream) float64 {
		n := int(values["n"])
		p := values["c"] * math.Log(float64(n)) / float64(n)
		if p > 1 {
			p = 1
		}
		m, err := mk(n, p)
		if err != nil {
			return math.NaN()
		}
		net := avail.Network(m, cliques[n], r)
		if temporal.SatisfiesTreachSerial(net, nil) {
			return 1
		}
		return 0
	}
}

// runSweepBothPaths executes the same sweep spec through the observable
// and the source paths and returns the two checkpoints.
func runSweepBothPaths(t *testing.T, tgt SweepTarget, grid sweep.Grid, workers int) (obsCP, srcCP *sweep.Checkpoint) {
	t.Helper()
	prec := sweep.Precision{Abs: 0.15, MinTrials: 4, MaxTrials: 24, Batch: 8}
	base := sweep.Sweep{Grid: grid, Kind: tgt.Kind(), Prec: prec, Seed: 1234, Workers: workers}

	obs, err := tgt.Observable()
	if err != nil {
		t.Fatalf("Observable: %v", err)
	}
	obsCP, err = base.Run(context.Background(), nil, obs)
	if err != nil {
		t.Fatalf("observable sweep: %v", err)
	}

	src, err := tgt.Source()
	if err != nil {
		t.Fatalf("Source: %v", err)
	}
	batched := base
	batched.Source = src
	srcCP, err = batched.Run(context.Background(), nil, nil)
	if err != nil {
		t.Fatalf("batched sweep: %v", err)
	}
	return obsCP, srcCP
}

func assertCheckpointsEqual(t *testing.T, name string, got, want *sweep.Checkpoint) {
	t.Helper()
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gj) != string(wj) {
		t.Fatalf("%s: batched checkpoint differs from observable checkpoint\nbatched:    %s\nobservable: %s", name, gj, wj)
	}
}

// assertSomeCellInformative fails a case whose every cell is degenerate:
// a proportion of 0 or 1, or a mean of 0. Such cells match on both paths
// whatever order the trials drew their streams in, so they pin nothing.
func assertSomeCellInformative(t *testing.T, name string, cp *sweep.Checkpoint) {
	t.Helper()
	for _, c := range cp.Cells {
		switch c.Est.Kind {
		case sweep.Proportion:
			if c.Est.Point > 0 && c.Est.Point < 1 {
				return
			}
		case sweep.Mean:
			if c.Est.Point > 0 {
				return
			}
		}
	}
	t.Fatalf("%s: every cell is degenerate (%d cells), so the case cannot tell the paths apart", name, len(cp.Cells))
}

// TestSweepSourceMatchesObservable sweeps representative targets — an
// i.i.d. law, the Markov chains, a p(t) schedule, the geometric scenario
// (BatchRunner's incremental ScenarioState + RelabelEdges route) and the
// randomized substrates (familyScenario's one Generate per trial on the
// same route, a geometric model nested in it included) — through both
// execution paths
// and pins the checkpoints identical, across worker counts. Above n = 64
// the reach and meandelta metrics sample their sources from the stream
// after the draw, so those cells also pin where the draw leaves it.
func TestSweepSourceMatchesObservable(t *testing.T) {
	cases := []struct {
		name string
		tgt  SweepTarget
		grid sweep.Grid
	}{
		// Every pair of a labeled clique is one hop apart, so treach and
		// reach read 1 there: the clique cases measure meandelta or thin
		// the labels (pi, radius) until some trials fail, and the substrate
		// StaticReach treach shortcut is covered on a cycle.
		{"uniform-dclique", SweepTarget{Model: "uniform", Metric: "meandelta"},
			sweep.Grid{Axes: []sweep.Axis{{Name: "n", Values: []float64{10, 14}}, {Name: "lifetime", Values: []float64{8, 20}}}}},
		{"uniform-cycle-treach", SweepTarget{Model: "uniform", Graph: "cycle", Metric: "treach"},
			sweep.Grid{Axes: []sweep.Axis{{Name: "n", Values: []float64{4, 6}}, {Name: "lifetime", Values: []float64{8, 20}}}}},
		{"markov-clique", SweepTarget{Model: "markov", Graph: "clique", Lifetime: 16, Metric: "reach", MP: map[string]float64{"pi": 0.1}},
			sweep.Grid{Axes: []sweep.Axis{{Name: "n", Values: []float64{9}}, {Name: "runlen", Values: []float64{1, 4}}}}},
		{"pt-burst-grid", SweepTarget{Model: "pt-burst", Graph: "grid", Lifetime: 12, Metric: "meandelta"},
			sweep.Grid{Axes: []sweep.Axis{{Name: "n", Values: []float64{12}}, {Name: "high", Values: []float64{0.3, 0.8}}}}},
		{"geometric-scenario", SweepTarget{Model: "geometric", Graph: "clique", Lifetime: 8, Metric: "reach", MP: map[string]float64{"radius": 0.3}},
			sweep.Grid{Axes: []sweep.Axis{{Name: "n", Values: []float64{8}}, {Name: "step", Values: []float64{0.05, 0.2}}}}},
		// Regression: scenario trials run on a per-trial support graph, so
		// Source must not apply the substrate StaticReach treach shortcut
		// (it used to, and SatisfiesTreachStatic panicked on the mismatch).
		{"geometric-treach", SweepTarget{Model: "geometric", Graph: "clique", Lifetime: 12, Metric: "treach"},
			sweep.Grid{Axes: []sweep.Axis{{Name: "n", Values: []float64{16}}, {Name: "radius", Values: []float64{0.2, 0.4}}}}},
		// The name is historical: no fallback route is left. The case now
		// covers familyScenario's Generate state for an i.i.d. law on a
		// randomized substrate, under a metric that does not read 0 in
		// every trial (treach never held on these sparse graphs).
		{"zipf-gnp-fallback", SweepTarget{Model: "zipf", Graph: "gnp", Lifetime: 10, Metric: "meandelta"},
			sweep.Grid{Axes: []sweep.Axis{{Name: "n", Values: []float64{10, 16}}}}},
		{"uniform-tree-meandelta", SweepTarget{Model: "uniform", Graph: "tree", Lifetime: 12, Metric: "meandelta"},
			sweep.Grid{Axes: []sweep.Axis{{Name: "n", Values: []float64{9, 70}}}}},
		{"markov-regular-reach", SweepTarget{Model: "markov", Graph: "regular", Metric: "reach"},
			sweep.Grid{Axes: []sweep.Axis{{Name: "n", Values: []float64{10, 66}}, {Name: "lifetime", Values: []float64{16, 40}}}}},
		{"geometric-gnp-reach", SweepTarget{Model: "geometric", Graph: "gnp", Lifetime: 8, Metric: "reach"},
			sweep.Grid{Axes: []sweep.Axis{{Name: "n", Values: []float64{10, 16}}, {Name: "radius", Values: []float64{0.25, 0.3}}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			obsCP, srcCP := runSweepBothPaths(t, tc.tgt, tc.grid, 1)
			assertCheckpointsEqual(t, tc.name+"/workers=1", srcCP, obsCP)
			assertSomeCellInformative(t, tc.name, obsCP)
			for _, workers := range []int{4, 0} {
				_, more := runSweepBothPaths(t, tc.tgt, tc.grid, workers)
				assertCheckpointsEqual(t, tc.name+"/workers>1", more, obsCP)
			}
		})
	}
}

// TestSweepSourceInfeasibleCellFails pins the feasibility-edge contract on
// the batched path: an infeasible cell (markov alpha > 1) must fail the
// sweep loudly through Source exactly as it does through Observable.
func TestSweepSourceInfeasibleCellFails(t *testing.T) {
	tgt := SweepTarget{Model: "markov", Lifetime: 8, Metric: "treach",
		MP: map[string]float64{"pi": 0.9, "runlen": 1}} // alpha = 9 > 1
	grid := sweep.Grid{Axes: []sweep.Axis{{Name: "n", Values: []float64{6}}}}
	src, err := tgt.Source()
	if err != nil {
		t.Fatal(err)
	}
	s := sweep.Sweep{Grid: grid, Kind: tgt.Kind(),
		Prec: sweep.Precision{Abs: 0.2, MaxTrials: 8, Batch: 4}, Seed: 1, Source: src}
	if _, err := s.Run(context.Background(), nil, nil); err == nil {
		t.Fatal("batched sweep of an infeasible cell succeeded, want loud failure")
	}

	// A size the family cannot be built on (regular needs deg < n),
	// reachable only by bisecting n, observes NaN on every trial and still
	// reports each one to the progress hook.
	regular, err := SweepTarget{Model: "uniform", Graph: "regular"}.Source()
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int32
	vals, err := regular(map[string]float64{"n": 4}, 1, 2, func() { fired.Add(1) })(context.Background(), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 5 || fired.Load() != 5 {
		t.Fatalf("infeasible cell: %d observations, %d progress calls, want 5 and 5", len(vals), fired.Load())
	}
	for i, v := range vals {
		if !math.IsNaN(v) {
			t.Fatalf("infeasible cell: observation %d = %v, want NaN", i, v)
		}
	}
}

// TestE18SourceMatchesObservable pins E18's batched cell source against
// its observable, cell by cell and across worker counts, including the
// infeasible corner both must refuse identically.
func TestE18SourceMatchesObservable(t *testing.T) {
	sub := newE18Substrate(12)
	cliques := map[int]*graph.Graph{12: sub.g}
	subs := map[int]e18Substrate{12: sub}
	for _, fam := range e18Models(4) {
		obs := e18Observable(cliques, fam.mk)
		src := e18Source(subs, fam.mk)
		prec := sweep.Precision{Abs: 0.2, MinTrials: 4, MaxTrials: 16, Batch: 8}
		for _, c := range []float64{0.1, 0.6} {
			vals := map[string]float64{"n": 12, "c": c}
			seed := sweep.CellSeed(77, 3)
			a := sweep.Adaptive{Seed: seed, Kind: sweep.Proportion, Prec: prec}
			want, err := a.Estimate(context.Background(), func(trial int, r *rng.Stream) float64 {
				return obs(vals, trial, r)
			})
			if err != nil {
				t.Fatalf("%s c=%g observable: %v", fam.name, c, err)
			}
			for _, workers := range []int{1, 4, 0} {
				got, err := a.EstimateSource(context.Background(), src(vals, seed, workers, nil))
				if err != nil {
					t.Fatalf("%s c=%g workers=%d batched: %v", fam.name, c, workers, err)
				}
				if got != want {
					t.Fatalf("%s c=%g workers=%d: batched %+v, observable %+v", fam.name, c, workers, got, want)
				}
			}
		}
	}

	// The infeasible markov corner (p too high for runlen): both paths
	// must observe NaN and error.
	models := e18Models(8)
	markov := models[1]
	vals := map[string]float64{"n": 12, "c": 6}
	p := vals["c"] * math.Log(12) / 12
	if _, err := markov.mk(12, p); err == nil {
		t.Skip("corner no longer infeasible; adjust c")
	}
	a := sweep.Adaptive{Seed: 1, Kind: sweep.Proportion,
		Prec: sweep.Precision{Abs: 0.2, MaxTrials: 8, Batch: 4}}
	obs := e18Observable(cliques, markov.mk)
	if _, err := a.Estimate(context.Background(), func(trial int, r *rng.Stream) float64 {
		return obs(vals, trial, r)
	}); err == nil {
		t.Fatal("observable path accepted an infeasible cell")
	}
	src := e18Source(subs, markov.mk)
	if _, err := a.EstimateSource(context.Background(), src(vals, 1, 1, nil)); err == nil {
		t.Fatal("batched path accepted an infeasible cell")
	}
}
