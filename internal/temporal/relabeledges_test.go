package temporal_test

// Differential + fuzz coverage for the topology-delta path: a network whose
// graph and labels were mutated through RelabelEdges must be
// indistinguishable — edge identifiers, labels, time edges, arrivals,
// reachability — from a network freshly built from the merged edge list.
// This is the contract the incremental scenario engine (avail geometric,
// sim.BatchRunner) stands on.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// edgesFromKeys unpacks sorted canonical keys u*n+v into edge arrays.
func edgesFromKeys(n int, keys []int64) (from, to []int32) {
	for _, k := range keys {
		from = append(from, int32(k/int64(n)))
		to = append(to, int32(k%int64(n)))
	}
	return from, to
}

func buildCanonical(n int, keys []int64) *graph.Graph {
	from, to := edgesFromKeys(n, keys)
	b := graph.NewBuilder(n, false)
	for i := range from {
		b.AddEdge(int(from[i]), int(to[i]))
	}
	return b.Build()
}

// randomKeySet draws m distinct canonical edge keys on n vertices.
func randomKeySet(r *rng.Stream, n, m int) []int64 {
	seen := map[int64]bool{}
	var keys []int64
	for len(keys) < m {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := int64(u)*int64(n) + int64(v)
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// randomDelta picks a removal subset (about removeFrac of current edges)
// and fresh inserts, returning the delta arrays plus the merged key set.
func randomDelta(r *rng.Stream, n int, cur []int64, removeNum, insertNum int) (remove, insFrom, insTo []int32, merged []int64) {
	kept := map[int64]bool{}
	for _, k := range cur {
		kept[k] = true
	}
	for e := range cur {
		if removeNum > 0 && r.Intn(len(cur)) < removeNum {
			remove = append(remove, int32(e))
			kept[cur[e]] = false
		}
	}
	var insKeys []int64
	for tries := 0; tries < 4*insertNum; tries++ {
		if len(insKeys) >= insertNum {
			break
		}
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := int64(u)*int64(n) + int64(v)
		if b, dup := kept[k]; (dup && b) || slices.Contains(insKeys, k) {
			continue
		}
		insKeys = append(insKeys, k)
	}
	slices.Sort(insKeys)
	insFrom, insTo = edgesFromKeys(n, insKeys)
	for k, b := range kept {
		if b {
			merged = append(merged, k)
		}
	}
	merged = append(merged, insKeys...)
	slices.Sort(merged)
	return remove, insFrom, insTo, merged
}

// assertSameTopology pins the mutated graph's edge arrays against the
// oracle's — identifier-for-identifier.
func assertSameTopology(t *testing.T, name string, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: graph n=%d m=%d, want n=%d m=%d", name, got.N(), got.M(), want.N(), want.M())
	}
	if !slices.Equal(got.FromArray(), want.FromArray()) || !slices.Equal(got.ToArray(), want.ToArray()) {
		t.Fatalf("%s: edge arrays differ from fresh build", name)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: mutated graph invalid: %v", name, err)
	}
}

// TestRelabelEdgesMatchesNew drives one network through delta sequences on
// both routes — small deltas under the churn threshold (adjacency patch)
// and full-replacement deltas above it (in-place rebuild) — pinning every
// step against a fresh build from the merged edge list.
func TestRelabelEdgesMatchesNew(t *testing.T) {
	const lifetime = 13
	for _, tc := range []struct {
		name              string
		n, m              int
		removeNum, insNum int
	}{
		{"patch-small", 12, 30, 2, 2},     // churn ~13% → patch route
		{"rebuild-heavy", 12, 30, 20, 20}, // churn ≫ threshold → rebuild route
		{"insert-only", 9, 0, 0, 6},       // grow from empty
		{"remove-only", 9, 14, 14, 0},     // shrink toward empty
		{"tiny", 2, 0, 0, 1},              // single possible edge
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(17)
			cur := randomKeySet(r, tc.n, tc.m)
			g := buildCanonical(tc.n, cur)
			lab := randomLabeling(g, lifetime, r)
			net := temporal.MustNew(g, lifetime, lab)
			for step := 0; step < 6; step++ {
				remove, insFrom, insTo, merged := randomDelta(r, tc.n, cur, tc.removeNum, tc.insNum)
				oracleG := buildCanonical(tc.n, merged)
				newLab := randomLabeling(oracleG, lifetime, r)
				err := net.RelabelEdges(temporal.EdgeDelta{
					Remove: remove, InsertFrom: insFrom, InsertTo: insTo, Labels: newLab,
				})
				if err != nil {
					t.Fatalf("step %d: RelabelEdges: %v", step, err)
				}
				name := fmt.Sprintf("step %d", step)
				assertSameTopology(t, name, net.Graph(), oracleG)
				assertNetworksEqual(t, name, net, temporal.MustNew(oracleG, lifetime, newLab))
				cur = merged
			}
		})
	}
}

// TestRelabelEdgesRejectsBadInput pins validation errors and that a failed
// call leaves network and graph unchanged.
func TestRelabelEdgesRejectsBadInput(t *testing.T) {
	const lifetime = 9
	n := 6
	keys := []int64{0*6 + 1, 0*6 + 3, 1*6 + 2, 2*6 + 4} // (0,1) (0,3) (1,2) (2,4)
	mk := func() *temporal.Network {
		g := buildCanonical(n, keys)
		return temporal.MustNew(g, lifetime, randomLabeling(g, lifetime, rng.New(5)))
	}
	lab3 := func(m int) temporal.Labeling { // valid shape for m edges, all-empty
		return temporal.Labeling{Off: make([]int32, m+1)}
	}
	cases := []struct {
		name  string
		delta temporal.EdgeDelta
	}{
		{"remove out of range", temporal.EdgeDelta{Remove: []int32{4}, Labels: lab3(3)}},
		{"remove negative", temporal.EdgeDelta{Remove: []int32{-1}, Labels: lab3(3)}},
		{"remove unsorted", temporal.EdgeDelta{Remove: []int32{2, 1}, Labels: lab3(2)}},
		{"insert length mismatch", temporal.EdgeDelta{InsertFrom: []int32{0}, Labels: lab3(5)}},
		{"insert self-loop", temporal.EdgeDelta{InsertFrom: []int32{2}, InsertTo: []int32{2}, Labels: lab3(5)}},
		{"insert wrong orientation", temporal.EdgeDelta{InsertFrom: []int32{3}, InsertTo: []int32{1}, Labels: lab3(5)}},
		{"insert out of range", temporal.EdgeDelta{InsertFrom: []int32{5}, InsertTo: []int32{6}, Labels: lab3(5)}},
		{"insert unsorted", temporal.EdgeDelta{InsertFrom: []int32{3, 1}, InsertTo: []int32{4, 5}, Labels: lab3(6)}},
		{"insert duplicate", temporal.EdgeDelta{InsertFrom: []int32{0}, InsertTo: []int32{3}, Labels: lab3(5)}},
		{"labeling wrong shape", temporal.EdgeDelta{Remove: []int32{0}, Labels: lab3(4)}},
		{"label out of range", temporal.EdgeDelta{Labels: temporal.LabelingFromSets([][]int{{lifetime + 1}, nil, nil, nil})}},
		{"label below one", temporal.EdgeDelta{Labels: temporal.LabelingFromSets([][]int{{0}, nil, nil, nil})}},
	}
	for _, tc := range cases {
		net := mk()
		if err := net.RelabelEdges(tc.delta); err == nil {
			t.Fatalf("%s: RelabelEdges accepted a bad delta", tc.name)
		}
		oracle := mk()
		assertSameTopology(t, tc.name, net.Graph(), oracle.Graph())
		assertNetworksEqual(t, tc.name+" (after rejected delta)", net, oracle)
	}

	directed := temporal.MustNew(graph.Clique(4, true), lifetime,
		temporal.Labeling{Off: make([]int32, graph.Clique(4, true).M()+1)})
	if err := directed.RelabelEdges(temporal.EdgeDelta{Labels: lab3(12)}); err == nil {
		t.Fatal("directed: RelabelEdges should be rejected")
	}
}

// TestRelabelEdgesSteadyStateAllocs pins the zero-allocation contract of
// the topology-churn trial loop on both routes, with lazy index rebuilds
// and kernel queries inside the measured loop, for irregular labelings
// (varying counts, the flat time-edge scatter) and regular ones (two
// labels per edge, the per-edge build).
func TestRelabelEdgesSteadyStateAllocs(t *testing.T) {
	if temporal.RaceEnabled {
		t.Skip("race instrumentation allocates in pooled scratch paths")
	}
	const lifetime, n = 16, 24
	twoPerEdge := func(g *graph.Graph, lifetime int, r *rng.Stream) temporal.Labeling {
		sets := make([][]int, g.M())
		for e := range sets {
			sets[e] = []int{1 + r.Intn(lifetime), 1 + r.Intn(lifetime)}
		}
		return temporal.LabelingFromSets(sets)
	}
	for _, tc := range []struct {
		name string
		draw func(*graph.Graph, int, *rng.Stream) temporal.Labeling
	}{{"irregular", randomLabeling}, {"regular", twoPerEdge}} {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(23)
			keysA := randomKeySet(r, n, 60)
			keysB := randomKeySet(r, n, 55)
			gA := buildCanonical(n, keysA)
			labA := tc.draw(gA, lifetime, r)
			labB := tc.draw(buildCanonical(n, keysB), lifetime, r)
			fromA, toA := edgesFromKeys(n, keysA)
			fromB, toB := edgesFromKeys(n, keysB)

			// Deltas between A and B, computed once: full-churn
			// replacements that exercise the rebuild route.
			diff := func(curKeys, nextKeys []int64, nextFrom, nextTo []int32) temporal.EdgeDelta {
				var d temporal.EdgeDelta
				for e, k := range curKeys {
					if !slices.Contains(nextKeys, k) {
						d.Remove = append(d.Remove, int32(e))
					}
				}
				for i, k := range nextKeys {
					if !slices.Contains(curKeys, k) {
						d.InsertFrom = append(d.InsertFrom, nextFrom[i])
						d.InsertTo = append(d.InsertTo, nextTo[i])
					}
				}
				return d
			}
			aToB := diff(keysA, keysB, fromB, toB)
			bToA := diff(keysB, keysA, fromA, toA)
			aToB.Labels = labB
			bToA.Labels = labA

			net := temporal.MustNew(gA, lifetime, labA)
			arr := make([]int32, gA.N())
			run := func(d temporal.EdgeDelta) {
				if err := net.RelabelEdges(d); err != nil {
					t.Fatal(err)
				}
				temporal.SatisfiesTreachSerial(net, nil)
				net.EarliestArrivalsInto(0, arr)
			}
			for i := 0; i < 3; i++ { // warm every buffer on both parities
				run(aToB)
				run(bToA)
			}
			allocs := testing.AllocsPerRun(50, func() {
				run(aToB)
				run(bToA)
			})
			if allocs != 0 {
				t.Fatalf("steady-state RelabelEdges+query allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// FuzzRelabelEdges lets the fuzzer pick the vertex count, edge densities
// and delta sizes, applies a chain of random insert/remove sets, and pins
// every step against the fresh-build oracle.
func FuzzRelabelEdges(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(20), uint8(3), uint8(3))
	f.Add(uint64(2), uint8(2), uint8(0), uint8(0), uint8(1))
	f.Add(uint64(3), uint8(11), uint8(40), uint8(40), uint8(0))
	f.Add(uint64(4), uint8(5), uint8(4), uint8(1), uint8(9))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, mRaw, removeRaw, insertRaw uint8) {
		n := int(nRaw)%12 + 2
		maxM := n * (n - 1) / 2
		m := int(mRaw) % (maxM + 1)
		const lifetime = 11
		r := rng.New(seed)
		cur := randomKeySet(r, n, m)
		g := buildCanonical(n, cur)
		lab := randomLabeling(g, lifetime, r)
		net := temporal.MustNew(g, lifetime, lab)
		for step := 0; step < 3; step++ {
			remove, insFrom, insTo, merged := randomDelta(r, n, cur,
				int(removeRaw)%(len(cur)+1), int(insertRaw)%8)
			oracleG := buildCanonical(n, merged)
			newLab := randomLabeling(oracleG, lifetime, r)
			err := net.RelabelEdges(temporal.EdgeDelta{
				Remove: remove, InsertFrom: insFrom, InsertTo: insTo, Labels: newLab,
			})
			if err != nil {
				t.Fatalf("step %d: RelabelEdges: %v", step, err)
			}
			name := fmt.Sprintf("step %d", step)
			assertSameTopology(t, name, net.Graph(), oracleG)
			assertNetworksEqual(t, name, net, temporal.MustNew(oracleG, lifetime, newLab))
			cur = merged
		}
	})
}
