package sim_test

// Differential coverage for the batched trial engine: BatchRunner must be
// bit-identical to the rebuild path — a runner without a model whose trial
// body builds avail.Network from scratch — across every registered
// availability model, every worker count, and the degenerate substrates
// n = 0 and 1.
// This file lives in package sim_test so it can exercise sim together with
// avail and temporal the way the experiment drivers do.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/avail"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/temporal"
)

// measureNet is a metrics-rich trial body: reachability, arrival mass from
// a sampled source, label count, plus a post-measurement stream draw so
// stream-state divergence between the paths cannot hide.
func measureNet(trial int, net *temporal.Network, r *rng.Stream) sim.Metrics {
	nv := net.Graph().N()
	mt := sim.Metrics{
		"labels": float64(net.LabelCount()),
		"tail":   float64(r.Uint64() % 1000),
	}
	if nv == 0 {
		return mt
	}
	arr := make([]int32, nv)
	src := r.Intn(nv)
	reached := net.EarliestArrivalsInto(src, arr)
	sum := 0.0
	for _, a := range arr {
		if a != temporal.Unreachable {
			sum += float64(a)
		}
	}
	mt["reached"] = float64(reached)
	mt["arrsum"] = sum
	if temporal.SatisfiesTreachSerial(net, nil) {
		mt["treach"] = 1
	} else {
		mt["treach"] = 0
	}
	return mt
}

// measureDraw is measureNet on the trial's drawn network.
func measureDraw(trial int, r *rng.Stream, draw sim.Draw) sim.Metrics {
	return measureNet(trial, draw(r), r)
}

// rebuild is the oracle every batched route is checked against: a runner
// without a model whose trials build avail.Network(m, g, r) from scratch.
func rebuild(t *testing.T, m avail.Model, g *graph.Graph, trials int, seed uint64) *sim.Results {
	t.Helper()
	res, err := (&sim.BatchRunner{Seed: seed}).Run(context.Background(), 0, trials, func(trial int, r *rng.Stream, _ sim.Draw) sim.Metrics {
		return measureNet(trial, avail.Network(m, g, r), r)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertResultsEqual compares two Results metric by metric, value by value.
func assertResultsEqual(t *testing.T, name string, got, want *sim.Results) {
	t.Helper()
	if got.Trials() != want.Trials() {
		t.Fatalf("%s: %d trials, want %d", name, got.Trials(), want.Trials())
	}
	gn, wn := got.Names(), want.Names()
	if fmt.Sprint(gn) != fmt.Sprint(wn) {
		t.Fatalf("%s: metrics %v, want %v", name, gn, wn)
	}
	for _, metric := range wn {
		gv, wv := got.Sample(metric).Values(), want.Sample(metric).Values()
		if len(gv) != len(wv) {
			t.Fatalf("%s: metric %s has %d values, want %d", name, metric, len(gv), len(wv))
		}
		for i := range wv {
			if gv[i] != wv[i] {
				t.Fatalf("%s: metric %s value %d = %v, want %v", name, metric, i, gv[i], wv[i])
			}
		}
	}
}

// TestBatchRunnerMatchesRebuild is the engine's differential property
// test: for every registered model (resampling and rebuild-fallback alike)
// and Workers ∈ {1, 4, GOMAXPROCS}, BatchRunner reproduces the rebuild
// oracle bit-identically, including on the n = 0 and n = 1 substrates.
func TestBatchRunnerMatchesRebuild(t *testing.T) {
	substrates := []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.NewBuilder(0, false).Build()},
		{"single", graph.Clique(1, false)},
		{"dclique10", graph.Clique(10, true)},
		{"grid3x4", graph.Grid(3, 4)},
	}
	const trials, seed = 24, 99
	for _, name := range avail.Names() {
		m, err := avail.Build(name, avail.Params{Lifetime: 12})
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		for _, sub := range substrates {
			want := rebuild(t, m, sub.g, trials, seed)
			for _, workers := range []int{1, 4, 0} { // 0 = GOMAXPROCS
				b := sim.BatchRunner{Model: m, Substrate: sub.g, Seed: seed, Workers: workers}
				got, err := b.Run(context.Background(), 0, trials, measureDraw)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", name, sub.name, workers, err)
				}
				assertResultsEqual(t, fmt.Sprintf("%s/%s workers=%d", name, sub.name, workers), got, want)
			}
		}
	}
}

// TestBatchRunnerObserveFromMatchesScalars pins the scalar path — the one
// the adaptive sweep engine's sources use — against the rebuild oracle's
// scalar path and against Run's range semantics (split ranges
// concatenate).
func TestBatchRunnerObserveFromMatchesScalars(t *testing.T) {
	g := graph.Clique(8, true)
	m, err := avail.Build("markov", avail.Params{Lifetime: 16})
	if err != nil {
		t.Fatal(err)
	}
	obs := func(trial int, net *temporal.Network, r *rng.Stream) float64 {
		if temporal.SatisfiesTreachSerial(net, nil) {
			return 1
		}
		return 0
	}
	want, err := (&sim.BatchRunner{Seed: 5}).ObserveFrom(context.Background(), 0, 40,
		func(trial int, _ *temporal.Network, r *rng.Stream) float64 {
			return obs(trial, avail.Network(m, g, r), r)
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 0} {
		b := sim.BatchRunner{Model: m, Substrate: g, Seed: 5, Workers: workers}
		head, err := b.ObserveFrom(context.Background(), 0, 15, obs)
		if err != nil {
			t.Fatal(err)
		}
		tail, err := b.ObserveFrom(context.Background(), 15, 25, obs)
		if err != nil {
			t.Fatal(err)
		}
		got := append(append([]float64{}, head...), tail...)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d observations, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: observation %d = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestBatchRunnerGeometricGridMatchesRebuild is the mobility-specific
// differential test at a size that takes the grid-bucket scan and the
// RelabelEdges route — the configuration the E17 sweeps run — against the
// rebuild oracle, across worker counts.
func TestBatchRunnerGeometricGridMatchesRebuild(t *testing.T) {
	m, err := avail.Build("geometric", avail.Params{Lifetime: 12})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Clique(64, false) // scenario models use only the vertex count
	const trials, seed = 20, 423
	want := rebuild(t, m, g, trials, seed)
	for _, workers := range []int{1, 4, 0} {
		b := sim.BatchRunner{Model: m, Substrate: g, Seed: seed, Workers: workers}
		got, err := b.Run(context.Background(), 0, trials, measureDraw)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertResultsEqual(t, fmt.Sprintf("geometric-grid workers=%d", workers), got, want)
	}
}

// TestBatchRunnerPanicPropagates pins runLoop's panic contract on the
// batched path: a panicking trial re-raises on the caller.
func TestBatchRunnerPanicPropagates(t *testing.T) {
	g := graph.Clique(4, true)
	m, err := avail.Build("uniform", avail.Params{Lifetime: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("trial panic did not propagate")
		}
	}()
	b := sim.BatchRunner{Model: m, Substrate: g, Seed: 1}
	b.Run(context.Background(), 0, 8, func(trial int, r *rng.Stream, draw sim.Draw) sim.Metrics {
		draw(r)
		if trial == 5 {
			panic("boom")
		}
		return sim.Metrics{"x": 1}
	})
}
