package sim_test

// The shared worker free list: runners over one substrate hand warm
// worker networks to each other, and nothing a worker did for an earlier
// model may show in a later one's numbers. The counters prove the reuse;
// the private-runner comparisons prove it is invisible.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/avail"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/temporal"
)

// freelistCounts reads the process-wide acquisition counters.
func freelistCounts() (hits, misses uint64) {
	reg := obs.Default()
	return reg.Counter("sim_worker_freelist_hits_total", "").Value(),
		reg.Counter("sim_worker_freelist_misses_total", "").Value()
}

func buildModel(t *testing.T, name string, p avail.Params) avail.Model {
	t.Helper()
	m, err := avail.Build(name, p)
	if err != nil {
		t.Fatalf("Build(%q): %v", name, err)
	}
	return m
}

// treachObs is the scalar body the sweep sources run.
func treachObs(_ int, net *temporal.Network, _ *rng.Stream) float64 {
	if temporal.SatisfiesTreachSerial(net, nil) {
		return 1
	}
	return 0
}

// holdAll returns a gate for one call's trials from start on: the first
// `workers` trials wait for each other. Each is claimed by a different
// worker goroutine, so every goroutine holds its worker at once and none
// can release one for a late starter to pick up: the call makes exactly
// `workers` acquisitions, each against the list as the call found it.
// The call must run at least `workers` trials.
func holdAll(workers, start int) func(trial int) {
	var wg sync.WaitGroup
	wg.Add(workers)
	return func(trial int) {
		if trial-start < workers {
			wg.Done()
			wg.Wait()
		}
	}
}

// TestSharedFreeListMatchesPrivateRunners runs a sequence of runners over
// one substrate on one free list, each once through Run and
// twice through ObserveFrom, and compares every result with a fresh
// private runner's. Resample models of one lifetime rebind the warm
// workers (every acquisition after the first call hits); a lifetime change
// and the geometric scenario get fresh workers, and a geometric worker
// serves only the runner that built it. A miss drops the list's idle
// workers, so returning to an earlier lifetime misses again.
func TestSharedFreeListMatchesPrivateRunners(t *testing.T) {
	g := graph.Clique(10, true)
	const trials, split, seed = 24, 10, 31
	steps := []struct {
		name string
		m    avail.Model
		miss bool // the step's first call builds fresh workers
	}{
		{"uniform-r1", buildModel(t, "uniform", avail.Params{Lifetime: 12}), true},
		{"uniform-r2", buildModel(t, "uniform", avail.Params{Lifetime: 12, R: 2}), false},
		{"markov", buildModel(t, "markov", avail.Params{Lifetime: 12}), false},
		{"pt-ramp", buildModel(t, "pt-ramp", avail.Params{Lifetime: 12}), false},
		{"uniform-life16", buildModel(t, "uniform", avail.Params{Lifetime: 16}), true},
		{"markov-life16", buildModel(t, "markov", avail.Params{Lifetime: 16}), false},
		{"uniform-life12-again", buildModel(t, "uniform", avail.Params{Lifetime: 12}), true},
		{"geometric", buildModel(t, "geometric", avail.Params{Lifetime: 12}), true},
		{"geometric-again", buildModel(t, "geometric", avail.Params{Lifetime: 12}), true},
		{"uniform-after-geometric", buildModel(t, "uniform", avail.Params{Lifetime: 12}), true},
	}
	for _, workers := range []int{1, 4} {
		free := new(sim.FreeList)
		for _, st := range steps {
			name := fmt.Sprintf("%s workers=%d", st.name, workers)
			private := sim.BatchRunner{Model: st.m, Substrate: g, Seed: seed, Workers: workers}
			want, err := private.Run(context.Background(), 0, trials, measureDraw)
			if err != nil {
				t.Fatal(err)
			}
			wantObs, err := private.ObserveFrom(context.Background(), 0, trials, treachObs)
			if err != nil {
				t.Fatal(err)
			}

			h0, m0 := freelistCounts()
			shared := sim.BatchRunner{Model: st.m, Substrate: g, Seed: seed, Workers: workers, FreeList: free}
			hold := holdAll(workers, 0)
			got, err := shared.Run(context.Background(), 0, trials, func(trial int, r *rng.Stream, draw sim.Draw) sim.Metrics {
				hold(trial)
				return measureDraw(trial, r, draw)
			})
			if err != nil {
				t.Fatal(err)
			}
			observe := func(start, count int) []float64 {
				hold := holdAll(workers, start)
				vals, err := shared.ObserveFrom(context.Background(), start, count, func(trial int, net *temporal.Network, r *rng.Stream) float64 {
					hold(trial)
					return treachObs(trial, net, r)
				})
				if err != nil {
					t.Fatal(err)
				}
				return vals
			}
			gotObs := append(observe(0, split), observe(split, trials-split)...)
			h1, m1 := freelistCounts()

			assertResultsEqual(t, name, got, want)
			if fmt.Sprint(gotObs) != fmt.Sprint(wantObs) {
				t.Fatalf("%s: shared observations %v, private %v", name, gotObs, wantObs)
			}
			// Three calls of `workers` acquisitions each; only the first
			// call can miss.
			wantHits, wantMisses := uint64(3*workers), uint64(0)
			if st.miss {
				wantHits, wantMisses = uint64(2*workers), uint64(workers)
			}
			if h1-h0 != wantHits || m1-m0 != wantMisses {
				t.Fatalf("%s: free list %d hits / %d misses, want %d / %d",
					name, h1-h0, m1-m0, wantHits, wantMisses)
			}
		}
	}
}

// TestRunDrawMatchesNetworkMidStream pins the mid-trial draw: a trial that
// spends stream before drawing gets exactly the network avail.Network
// builds from the same stream position, and leaves the stream where
// avail.Network does — for every registered model, with all of them
// sharing one free list.
func TestRunDrawMatchesNetworkMidStream(t *testing.T) {
	g := graph.Clique(12, true)
	const trials, seed = 20, 57
	for _, workers := range []int{1, 4} {
		free := new(sim.FreeList)
		for _, name := range avail.Names() {
			m := buildModel(t, name, avail.Params{Lifetime: 12})
			// The same body on both runners: the one without a model hands
			// it a Draw that rebuilds through avail.Network.
			midStream := func(trial int, r *rng.Stream, draw sim.Draw) sim.Metrics {
				pre := float64(r.Intn(1000))
				mt := measureNet(trial, draw(r), r)
				mt["pre"] = pre
				return mt
			}
			want, err := (&sim.BatchRunner{Seed: seed}).Run(context.Background(), 0, trials, func(trial int, r *rng.Stream, _ sim.Draw) sim.Metrics {
				return midStream(trial, r, func(r *rng.Stream) *temporal.Network { return avail.Network(m, g, r) })
			})
			if err != nil {
				t.Fatal(err)
			}
			b := sim.BatchRunner{Model: m, Substrate: g, Seed: seed, Workers: workers, FreeList: free}
			got, err := b.Run(context.Background(), 0, trials, midStream)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, fmt.Sprintf("%s workers=%d", name, workers), got, want)
		}
	}
}
