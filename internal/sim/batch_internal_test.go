package sim

// White-box checks that BatchRunner actually routes models onto the route
// their kind selects — the differential tests alone could pass with a
// scenario model drawn on the fixed-substrate route or the reverse.

import (
	"slices"
	"testing"

	"repro/internal/avail"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestAcquireSelectsPathPerModel(t *testing.T) {
	g := graph.Clique(24, false)
	cases := []struct {
		model  string
		wantSS bool
	}{
		{"uniform", false}, // fixed substrate → relabel route
		{"markov", false},
		{"geometric", true}, // Scenario → scenario route
	}
	for _, tc := range cases {
		m, err := avail.Build(tc.model, avail.Params{Lifetime: 10})
		if err != nil {
			t.Fatalf("Build(%q): %v", tc.model, err)
		}
		b := BatchRunner{Model: m, Substrate: g, Seed: 1}
		w := b.acquire()
		if (w.ss != nil) != tc.wantSS {
			t.Fatalf("%s: ss=%v, want ss=%v", tc.model, w.ss != nil, tc.wantSS)
		}
		b.release(w)
	}
}

// TestScenarioPathCountsTrials drives a worker through several geometric
// trials and checks they are all served by the scenario route (empty
// skeleton, then RelabelEdges every trial), each leaving the worker's
// graph with Generate's edges in Generate's order.
func TestScenarioPathCountsTrials(t *testing.T) {
	m, err := avail.Build("geometric", avail.Params{Lifetime: 8})
	if err != nil {
		t.Fatal(err)
	}
	b := BatchRunner{Model: m, Substrate: graph.Clique(48, false), Seed: 7}
	w := b.acquire()
	if w.ss == nil {
		t.Fatal("geometric worker has no scenario state")
	}
	for i := uint64(0); i < 5; i++ {
		net := w.instance(rng.NewStream(7, i))
		if net != w.net {
			t.Fatalf("trial %d: instance did not return the worker-owned network", i)
		}
		want := avail.Network(m, b.Substrate, rng.NewStream(7, i)).Graph()
		if got := net.Graph(); !slices.Equal(got.FromArray(), want.FromArray()) || !slices.Equal(got.ToArray(), want.ToArray()) {
			t.Fatalf("trial %d: worker graph's %d edges differ from Generate's %d", i, got.M(), want.M())
		}
	}
	if w.scenario != 5 || w.resampled != 0 {
		t.Fatalf("route counters scenario=%d resampled=%d, want 5/0",
			w.scenario, w.resampled)
	}
}
