package temporal_test

// Differential + fuzz coverage for RelabelEdges: a network whose graph and
// labels were replaced through it must be indistinguishable — edge
// identifiers, labels, time edges, arrivals, reachability — from a network
// freshly built from the same edge list and labeling. This is the contract
// the incremental scenario engine (avail geometric, sim.BatchRunner)
// stands on.

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

// buildEdges builds the graph a fresh Builder makes of the edge list.
func buildEdges(n int, directed bool, from, to []int32) *graph.Graph {
	b := graph.NewBuilder(n, directed)
	for i := range from {
		b.AddEdge(int(from[i]), int(to[i]))
	}
	return b.Build()
}

func buildCanonical(n int, keys []int64) *graph.Graph {
	from, to := edgesFromKeys(n, keys)
	return buildEdges(n, false, from, to)
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

// nextKeySet derives the next trial's sorted key set from cur: it drops
// about removeNum of cur's keys and adds up to insertNum keys not in cur.
func nextKeySet(r *rng.Stream, n int, cur []int64, removeNum, insertNum int) []int64 {
	var next []int64
	for _, k := range cur {
		if removeNum > 0 && r.Intn(len(cur)) < removeNum {
			continue
		}
		next = append(next, k)
	}
	var ins []int64
	for tries := 0; tries < 4*insertNum && len(ins) < insertNum; tries++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := int64(u)*int64(n) + int64(v)
		if slices.Contains(cur, k) || slices.Contains(ins, k) {
			continue
		}
		ins = append(ins, k)
	}
	next = append(next, ins...)
	slices.Sort(next)
	return next
}

// shuffleEdges permutes an edge list and flips a random half of its
// edges, so the list is in no canonical order.
func shuffleEdges(r *rng.Stream, from, to []int32) {
	for i := len(from) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		from[i], from[j] = from[j], from[i]
		to[i], to[j] = to[j], to[i]
	}
	for i := range from {
		if r.Intn(2) == 0 {
			from[i], to[i] = to[i], from[i]
		}
	}
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

// TestRelabelEdgesMatchesNew drives one network through sequences of edge
// lists — a few edges changing per step, most changing, growing from
// empty, shrinking toward empty, always empty, the same list every step,
// nearly complete, and lists in no canonical order on undirected and
// directed graphs — pinning every step against a fresh build from the
// same list.
func TestRelabelEdgesMatchesNew(t *testing.T) {
	const lifetime = 13
	for _, tc := range []struct {
		name              string
		n, m              int
		removeNum, insNum int
		directed, shuffle bool
	}{
		{name: "patch-small", n: 12, m: 30, removeNum: 2, insNum: 2},
		{name: "rebuild-heavy", n: 12, m: 30, removeNum: 20, insNum: 20},
		{name: "insert-only", n: 9, insNum: 6},
		{name: "remove-only", n: 9, m: 14, removeNum: 14},
		{name: "tiny", n: 2, insNum: 1},
		{name: "empty", n: 6},
		{name: "repeated", n: 10, m: 20},
		{name: "near-complete", n: 10, m: 44, removeNum: 1, insNum: 3},
		{name: "unordered", n: 12, m: 30, removeNum: 20, insNum: 20, shuffle: true},
		{name: "directed", n: 12, m: 30, removeNum: 20, insNum: 20, directed: true, shuffle: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(17)
			cur := randomKeySet(r, tc.n, tc.m)
			from, to := edgesFromKeys(tc.n, cur)
			g := buildEdges(tc.n, tc.directed, from, to)
			net := temporal.MustNew(g, lifetime, randomLabeling(g, lifetime, r))
			for step := 0; step < 6; step++ {
				cur = nextKeySet(r, tc.n, cur, tc.removeNum, tc.insNum)
				from, to := edgesFromKeys(tc.n, cur)
				if tc.shuffle {
					shuffleEdges(r, from, to)
				}
				oracleG := buildEdges(tc.n, tc.directed, from, to)
				lab := randomLabeling(oracleG, lifetime, r)
				if err := net.RelabelEdges(from, to, lab); err != nil {
					t.Fatalf("step %d: RelabelEdges: %v", step, err)
				}
				name := fmt.Sprintf("step %d", step)
				assertSameTopology(t, name, net.Graph(), oracleG)
				assertNetworksEqual(t, name, net, temporal.MustNew(oracleG, lifetime, lab))
			}
		})
	}
}

// TestRelabelEdgesRejectsBadInput pins validation errors and that a failed
// call leaves graph and labels unchanged, on a freshly built network and
// on one whose last RelabelEdges left every index to rebuild.
func TestRelabelEdgesRejectsBadInput(t *testing.T) {
	const lifetime, n = 9, 6
	from := []int32{0, 0, 1, 2} // (0,1) (0,3) (1,2) (2,4)
	to := []int32{1, 3, 2, 4}
	empty := func(m int) temporal.Labeling { // valid shape for m edges, all-empty
		return temporal.Labeling{Off: make([]int32, m+1)}
	}
	cases := []struct {
		name     string
		from, to []int32
		lab      temporal.Labeling
	}{
		{"length mismatch", []int32{0, 1}, []int32{1}, empty(2)},
		{"self-loop", []int32{2}, []int32{2}, empty(1)},
		{"out of range", []int32{5}, []int32{6}, empty(1)},
		{"negative", []int32{-1}, []int32{2}, empty(1)},
		{"labeling wrong shape", []int32{0, 1}, []int32{1, 2}, empty(3)},
		{"offsets short of labels", []int32{0}, []int32{1}, temporal.Labeling{Off: []int32{0, 1}, Labels: []int32{3, 4}}},
		{"label out of range", []int32{0}, []int32{1}, temporal.LabelingFromSets([][]int{{lifetime + 1}})},
		{"label below one", []int32{0}, []int32{1}, temporal.LabelingFromSets([][]int{{0}})},
	}
	// mk builds the graph and labeling every network here starts from, a
	// fresh copy per call, so nothing is shared with the oracle.
	mk := func() (*graph.Graph, temporal.Labeling) {
		g := buildEdges(n, false, from, to)
		return g, randomLabeling(g, lifetime, rng.New(5))
	}
	for _, dirty := range []bool{false, true} {
		for _, tc := range cases {
			g, lab := mk()
			var net *temporal.Network
			if dirty {
				net = temporal.MustNew(buildEdges(n, false, nil, nil), lifetime, temporal.Labeling{Off: []int32{0}})
				if err := net.RelabelEdges(from, to, lab); err != nil {
					t.Fatal(err)
				}
			} else {
				net = temporal.MustNew(g, lifetime, lab)
			}
			name := fmt.Sprintf("%s (dirty=%v)", tc.name, dirty)
			if err := net.RelabelEdges(tc.from, tc.to, tc.lab); err == nil {
				t.Fatalf("%s: RelabelEdges accepted a bad input", name)
			}
			og, olab := mk()
			assertSameTopology(t, name, net.Graph(), og)
			assertNetworksEqual(t, name+" after the rejected call", net, temporal.MustNew(og, lifetime, olab))
		}
	}
}

// TestRelabelEdgesSteadyStateAllocs pins the zero-allocation contract of
// the per-trial topology loop, alternating two edge lists with lazy index
// rebuilds and kernel queries inside the measured loop, for irregular
// labelings (varying counts, the flat time-edge scatter) and regular ones
// (two labels per edge, the per-edge build).
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

			net := temporal.MustNew(gA, lifetime, labA)
			arr := make([]int32, gA.N())
			run := func(from, to []int32, lab temporal.Labeling) {
				if err := net.RelabelEdges(from, to, lab); err != nil {
					t.Fatal(err)
				}
				temporal.SatisfiesTreachSerial(net, nil)
				net.EarliestArrivalsInto(0, arr)
			}
			for i := 0; i < 3; i++ { // warm every buffer on both parities
				run(fromB, toB, labB)
				run(fromA, toA, labA)
			}
			allocs := testing.AllocsPerRun(50, func() {
				run(fromB, toB, labB)
				run(fromA, toA, labA)
			})
			if allocs != 0 {
				t.Fatalf("steady-state RelabelEdges+query allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// FuzzRelabelEdges lets the fuzzer pick the vertex count, edge densities
// and how many edges each step drops and adds, replaces the edges with a
// chain of such lists (in no canonical order when the seed is odd), and
// pins every step against the fresh-build oracle.
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
		net := temporal.MustNew(g, lifetime, randomLabeling(g, lifetime, r))
		for step := 0; step < 3; step++ {
			cur = nextKeySet(r, n, cur, int(removeRaw)%(len(cur)+1), int(insertRaw)%8)
			from, to := edgesFromKeys(n, cur)
			if seed%2 == 1 {
				shuffleEdges(r, from, to)
			}
			oracleG := buildEdges(n, false, from, to)
			lab := randomLabeling(oracleG, lifetime, r)
			if err := net.RelabelEdges(from, to, lab); err != nil {
				t.Fatalf("step %d: RelabelEdges: %v", step, err)
			}
			name := fmt.Sprintf("step %d", step)
			assertSameTopology(t, name, net.Graph(), oracleG)
			assertNetworksEqual(t, name, net, temporal.MustNew(oracleG, lifetime, lab))
		}
	})
}
