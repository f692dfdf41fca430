package temporal_test

// Differential coverage for ConnectedPrefix against the independent
// oracle it replaced in E1b: a bisection over core.PrefixConnected, which
// builds the label-prefix graph and asks package graph for (strong)
// connectivity.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// prefixBisect is the oracle: the least k in [1, lifetime] whose prefix
// graph is connected, by bisection, or lifetime+1.
func prefixBisect(net *temporal.Network) int {
	lo, hi := 1, net.Lifetime()
	if !core.PrefixConnected(net, int32(hi)) {
		return hi + 1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if core.PrefixConnected(net, int32(mid)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func TestConnectedPrefixMatchesBisection(t *testing.T) {
	scratch := new(temporal.PrefixScratch)
	for _, n := range []int{0, 1, 2, 17, 64} {
		for _, directed := range []bool{false, true} {
			r := rng.New(uint64(100*n) + 7)
			graphs := map[string]*graph.Graph{
				"clique": graph.Clique(n, directed),
				"gnp":    graph.Gnp(n, min(1, 4/float64(max(n, 1))), directed, r),
			}
			for gname, g := range graphs {
				for _, lifetime := range []int{1, 5, 2*n + 3} {
					// One network relabeled per case, as the batched engine
					// does, so the kernel sees unsorted per-edge runs.
					net := temporal.MustNew(g, lifetime, temporal.Labeling{Off: make([]int32, g.M()+1)})
					for rep := 0; rep < 6; rep++ {
						name := fmt.Sprintf("n=%d directed=%v %s lifetime=%d rep=%d", n, directed, gname, lifetime, rep)
						lab := randomLabeling(g, lifetime, r) // relabel_test.go: 0–6 labels per edge
						if rep == 0 {
							lab = temporal.Labeling{Off: make([]int32, g.M()+1)}
						}
						if err := net.Relabel(lab); err != nil {
							t.Fatal(err)
						}
						got := temporal.ConnectedPrefix(net, scratch)
						pooled := temporal.ConnectedPrefix(net, nil)
						want := prefixBisect(net)
						if got != want || pooled != want {
							t.Fatalf("%s: ConnectedPrefix = %d (pooled %d), bisection = %d", name, got, pooled, want)
						}
						if rep == 0 && n >= 2 && got != lifetime+1 {
							t.Fatalf("%s: empty labeling answered %d, want lifetime+1", name, got)
						}
					}
				}
			}
		}
	}
}

// TestConnectedPrefixEndLabels pins answers at both ends of the label
// range: a prefix that connects at label 1, one that needs the lifetime
// itself, and one multi-label edge whose late label does not hide its
// early one.
func TestConnectedPrefixEndLabels(t *testing.T) {
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	g := b.Build()
	cases := []struct {
		sets [][]int
		want int
	}{
		{[][]int{{1}, {1}, {1}}, 1},
		{[][]int{{1}, {2}, {9}}, 9},
		{[][]int{{9, 1}, {9, 2}, {3, 9}}, 3},
		{[][]int{{1}, {}, {9}}, 10},
	}
	for _, tc := range cases {
		net := temporal.MustNew(g, 9, temporal.LabelingFromSets(tc.sets))
		if got := temporal.ConnectedPrefix(net, nil); got != tc.want {
			t.Fatalf("labels %v: ConnectedPrefix = %d, want %d", tc.sets, got, tc.want)
		}
		if want := prefixBisect(net); want != tc.want {
			t.Fatalf("labels %v: oracle = %d, want %d", tc.sets, want, tc.want)
		}
	}
}
