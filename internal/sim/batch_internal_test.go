package sim

// White-box checks that BatchRunner actually routes models onto the path
// their capabilities select — the differential tests alone could pass with
// every model silently falling back to the rebuild path.

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
		model          string
		wantRS, wantSS bool
	}{
		{"uniform", true, false}, // Resampler → relabel path
		{"markov", true, false},
		{"geometric", false, true}, // IncrementalScenario → scenario path
	}
	for _, tc := range cases {
		m, err := avail.Build(tc.model, avail.Params{Lifetime: 10})
		if err != nil {
			t.Fatalf("Build(%q): %v", tc.model, err)
		}
		b := BatchRunner{Model: m, Substrate: g, Seed: 1}
		w := b.acquire()
		if (w.rs != nil) != tc.wantRS || (w.ss != nil) != tc.wantSS {
			t.Fatalf("%s: rs=%v ss=%v, want rs=%v ss=%v",
				tc.model, w.rs != nil, w.ss != nil, tc.wantRS, tc.wantSS)
		}
		b.release(w)
	}
}

// TestScenarioPathCountsTrials drives a worker through several geometric
// trials and checks they are all served by the incremental path (empty
// skeleton, then RelabelEdges every trial), never the rebuild fallback,
// each leaving the worker's graph with Generate's edges in Generate's
// order.
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
	if w.scenario != 5 || w.rebuilt != 0 || w.resampled != 0 {
		t.Fatalf("path counters scenario=%d rebuilt=%d resampled=%d, want 5/0/0",
			w.scenario, w.rebuilt, w.resampled)
	}
}
