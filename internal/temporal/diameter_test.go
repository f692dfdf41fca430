package temporal

// Differential tests for the word-scan temporal diameter: Diameter and
// DiameterFromSerial must reproduce, field for field, the DiameterResult
// folded from per-source linear-oracle arrival rows — on every generator
// family, on source sets that leave the last 64-source batch partial, on
// sampled and duplicated sources, and on n = 0, 1, 2.

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// diameterOracle folds per-source EarliestArrivalsLinearInto rows into a
// DiameterResult, sharing no code with the word scan.
func diameterOracle(n *Network, sources []int) DiameterResult {
	res := DiameterResult{AllReachable: true}
	nv := n.Graph().N()
	if nv == 0 {
		return res
	}
	arr := make([]int32, nv)
	var sum, finite int64
	for _, s := range sources {
		n.EarliestArrivalsLinearInto(s, arr)
		for v, a := range arr {
			if v == s {
				continue
			}
			res.Pairs++
			if a == Unreachable {
				res.AllReachable = false
				continue
			}
			finite++
			sum += int64(a)
			res.Max = max(res.Max, a)
		}
	}
	if finite > 0 {
		res.MeanFinite = float64(sum) / float64(finite)
	}
	return res
}

// diameterMatchesOracle fails the test unless DiameterFromSerial — and
// Diameter, when sources are every vertex in order — equals the oracle on
// sources.
func diameterMatchesOracle(t *testing.T, name string, n *Network, sources []int) {
	t.Helper()
	want := diameterOracle(n, sources)
	if got := DiameterFromSerial(n, sources); got != want {
		t.Fatalf("%s: %d sources: DiameterFromSerial = %+v, oracle = %+v", name, len(sources), got, want)
	}
	if len(sources) != n.Graph().N() {
		return
	}
	for i, s := range sources {
		if s != i {
			return
		}
	}
	if got := Diameter(n); got != want {
		t.Fatalf("%s: Diameter = %+v, oracle = %+v", name, got, want)
	}
}

// sourceSets returns every vertex in order, a sample of half of them, and
// nv+3 draws with replacement (so duplicates are likely).
func sourceSets(nv int, r *rng.Stream) [][]int {
	all := make([]int, nv)
	for i := range all {
		all[i] = i
	}
	sets := [][]int{all, r.Sample(nv, nv/2)}
	if nv > 0 {
		dup := make([]int, nv+3)
		for i := range dup {
			dup[i] = r.Intn(nv)
		}
		sets = append(sets, dup)
	}
	return sets
}

func TestDiameterMatchesLinearOracle(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(1000 + seed)
		for _, tn := range generatorNetworks(seed) {
			for _, sources := range sourceSets(tn.net.Graph().N(), r) {
				diameterMatchesOracle(t, fmt.Sprintf("seed %d %s", seed, tn.name), tn.net, sources)
			}
		}
	}
	empty := MustNew(graph.NewBuilder(0, false).Build(), 1, LabelingFromSets(nil))
	diameterMatchesOracle(t, "empty", empty, nil)
	// One directed arc: exactly one of the two ordered pairs is reachable.
	b := graph.NewBuilder(2, true)
	b.AddEdge(0, 1)
	arc := MustNew(b.Build(), 3, LabelingFromSets([][]int{{2}}))
	diameterMatchesOracle(t, "arc", arc, []int{0, 1})
}

// TestDiameterPartialBatches runs source counts around the 64-source
// batch width — 65, 96, 128 and 130, so the last batch is partial or a
// second full one — sampled without and drawn with replacement, on
// directed and undirected graphs that are partially reachable (sparse
// G(n,p)) or reach everything early (a clique).
func TestDiameterPartialBatches(t *testing.T) {
	r := rng.New(5)
	var nets []testNetwork
	for _, directed := range []bool{false, true} {
		g := graph.Gnp(130, 0.04, directed, r)
		nets = append(nets, testNetwork{fmt.Sprintf("gnp130-dir=%v", directed), MustNew(g, 130, uniformSets(g, 130, 2, r))})
		g = graph.Clique(130, directed)
		nets = append(nets, testNetwork{fmt.Sprintf("clique130-dir=%v", directed), MustNew(g, 130, uniformSets(g, 130, 1, r))})
	}
	for _, tn := range nets {
		nv := tn.net.Graph().N()
		for _, k := range []int{65, 96, 128, 130} {
			diameterMatchesOracle(t, tn.name+"/sampled", tn.net, r.Sample(nv, k))
			dup := make([]int, k)
			for i := range dup {
				dup[i] = r.Intn(nv / 4)
			}
			diameterMatchesOracle(t, tn.name+"/duplicated", tn.net, dup)
		}
		for _, sources := range sourceSets(nv, r) {
			diameterMatchesOracle(t, tn.name, tn.net, sources)
		}
	}
}
