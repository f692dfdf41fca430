package temporal_test

// The label-sorted time-edge list against an independent reference: every
// (edge, label) pair read back through EdgeLabels, stably sorted by label.
// The build scatters labels in storage order, so within one label the
// pairs come in edge order, which is what a stable sort of the
// edge-ordered pairs gives. The kernels that read the list (the word scan,
// EarliestArrivalsLinearInto) cannot check it, since they read the same
// list; this does, for regular labelings (the per-edge loop) and
// irregular ones, sparse and dense (the flat scatter), after New, Relabel
// and RelabelEdges.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

type edgeLabel struct {
	e int
	l int32
}

// timeEdgeList reads the network's label-sorted time-edge list.
func timeEdgeList(net *temporal.Network) []edgeLabel {
	var got []edgeLabel
	net.TimeEdges(func(e, _, _ int, l int32) { got = append(got, edgeLabel{e, l}) })
	return got
}

// referenceTimeEdges lists every edge's labels in edge order and sorts the
// pairs stably by label.
func referenceTimeEdges(net *temporal.Network) []edgeLabel {
	var ref []edgeLabel
	for e := 0; e < net.Graph().M(); e++ {
		for _, l := range net.EdgeLabels(e) {
			ref = append(ref, edgeLabel{e, l})
		}
	}
	slices.SortStableFunc(ref, func(a, b edgeLabel) int { return int(a.l) - int(b.l) })
	return ref
}

// assertTimeEdges checks the list before anything sorts the per-edge
// label runs, so a relabeled network builds from its unsorted storage.
func assertTimeEdges(t *testing.T, name string, net *temporal.Network) {
	t.Helper()
	got := timeEdgeList(net)
	want := referenceTimeEdges(net)
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("%s: time edge %d is %+v, want %+v (%d and %d time edges)", name, i, got[i], want[i], len(got), len(want))
			}
		}
		t.Fatalf("%s: %d time edges, want %d", name, len(got), len(want))
	}
}

// labelShape draws one edge's label count.
type labelShape struct {
	name  string
	count func(e, m int, r *rng.Stream) int
}

var labelShapes = []labelShape{
	{"k=0", func(int, int, *rng.Stream) int { return 0 }},
	{"k=1", func(int, int, *rng.Stream) int { return 1 }},
	{"k=3", func(int, int, *rng.Stream) int { return 3 }},
	{"varying", func(_, _ int, r *rng.Stream) int { return r.Intn(5) }},
	{"varying-dense", func(_, _ int, r *rng.Stream) int { return 8 + r.Intn(12) }},
	{"empty-first-and-last", func(e, m int, r *rng.Stream) int {
		if e == 0 || e == m-1 {
			return 0
		}
		return 1 + r.Intn(3)
	}},
	{"one-edge-holds-all", func(e, m int, _ *rng.Stream) int {
		if e == m/2 {
			return 3 * m
		}
		return 0
	}},
}

// shapedLabeling draws labels in [1, lifetime], unsorted per edge, with
// counts from shape.
func shapedLabeling(g *graph.Graph, lifetime int, shape labelShape, r *rng.Stream) temporal.Labeling {
	m := g.M()
	sets := make([][]int, m)
	for e := range sets {
		for range shape.count(e, m, r) {
			sets[e] = append(sets[e], 1+r.Intn(lifetime))
		}
	}
	return temporal.LabelingFromSets(sets)
}

func TestTimeEdgesMatchReference(t *testing.T) {
	const lifetime = 9
	r := rng.New(31)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"dclique7", graph.Clique(7, true)},
		{"grid3x4", graph.Grid(3, 4)},
		{"m=0", graph.NewBuilder(5, false).Build()},
	}
	for _, tg := range graphs {
		for _, shape := range labelShapes {
			name := tg.name + "/" + shape.name
			lab := shapedLabeling(tg.g, lifetime, shape, r)
			assertTimeEdges(t, name+"/new", temporal.MustNew(tg.g, lifetime, lab))
			net := temporal.MustNew(tg.g, lifetime, shapedLabeling(tg.g, lifetime, labelShapes[1], r))
			if err := net.Relabel(lab); err != nil {
				t.Fatal(err)
			}
			assertTimeEdges(t, name+"/relabel", net)
		}
	}

	// One network relabeled regular → irregular → regular, growing and
	// shrinking, so each loop runs over buffers the other left behind.
	g := graph.Clique(9, true)
	net := temporal.MustNew(g, lifetime, temporal.Labeling{Off: make([]int32, g.M()+1)})
	for i, name := range []string{"k=1", "varying", "k=3", "k=0", "varying-dense",
		"one-edge-holds-all", "k=3", "empty-first-and-last", "k=1"} {
		k := slices.IndexFunc(labelShapes, func(s labelShape) bool { return s.name == name })
		if err := net.Relabel(shapedLabeling(g, lifetime, labelShapes[k], r)); err != nil {
			t.Fatal(err)
		}
		assertTimeEdges(t, fmt.Sprintf("sequence step %d (%s)", i, name), net)
	}

	// Edge lists replaced through RelabelEdges, a few edges or most of
	// them changing per step, for every shape.
	const nv = 14
	for _, shape := range labelShapes {
		for _, churn := range []struct {
			name           string
			remove, insert int
		}{{"few", 2, 2}, {"most", 20, 20}} {
			keys := randomKeySet(r, nv, 40)
			g := buildCanonical(nv, keys)
			net := temporal.MustNew(g, lifetime, shapedLabeling(g, lifetime, labelShapes[1], r))
			for step := 0; step < 3; step++ {
				keys = nextKeySet(r, nv, keys, churn.remove, churn.insert)
				from, to := edgesFromKeys(nv, keys)
				lab := shapedLabeling(buildCanonical(nv, keys), lifetime, shape, r)
				if err := net.RelabelEdges(from, to, lab); err != nil {
					t.Fatal(err)
				}
				assertTimeEdges(t, fmt.Sprintf("relabel edges %s/%s/step %d", shape.name, churn.name, step), net)
			}
		}
	}
}

// FuzzTimeEdges lets the fuzzer pick the substrate, lifetime and the label
// counts of two labelings (regular when the count byte's high bit is set,
// else drawn per edge below it), and pins the list after New and after
// Relabel against the reference.
func FuzzTimeEdges(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(9), uint8(0x81), uint8(3), false)
	f.Add(uint64(2), uint8(0), uint8(1), uint8(0), uint8(0), true)
	f.Add(uint64(3), uint8(9), uint8(24), uint8(20), uint8(0x80), true)
	f.Add(uint64(4), uint8(12), uint8(3), uint8(1), uint8(0x83), false)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, lifeRaw, firstRaw, secondRaw uint8, directed bool) {
		n := int(nRaw) % 13
		lifetime := int(lifeRaw)%30 + 1
		r := rng.New(seed)
		g := graph.Gnp(n, 0.6, directed, r)
		draw := func(countRaw uint8) temporal.Labeling {
			k := int(countRaw & 0x1f)
			shape := labelShape{"fuzz", func(int, int, *rng.Stream) int { return k }}
			if countRaw&0x80 == 0 {
				shape.count = func(_, _ int, r *rng.Stream) int { return r.Intn(k + 1) }
			}
			return shapedLabeling(g, lifetime, shape, r)
		}
		first, second := draw(firstRaw), draw(secondRaw)
		net := temporal.MustNew(g, lifetime, first)
		assertTimeEdges(t, "new", net)
		if err := net.Relabel(second); err != nil {
			t.Fatalf("Relabel: %v", err)
		}
		assertTimeEdges(t, "relabel", net)
	})
}
