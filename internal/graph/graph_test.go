package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// hasEdge reports whether g has the arc (u,v) ({u,v} when undirected).
func hasEdge(g *Graph, u, v int) bool {
	_, ok := g.EdgeBetween(u, v)
	return ok
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0, false).Build()
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph: n=%d m=%d", g.N(), g.M())
	}
}

func TestBuilderBasicUndirected(t *testing.T) {
	b := NewBuilder(4, false)
	e0 := b.AddEdge(0, 1)
	e1 := b.AddEdge(1, 2)
	e2 := b.AddEdge(3, 1)
	g := b.Build()

	if g.Directed() {
		t.Fatal("graph should be undirected")
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("n=%d m=%d, want 4,3", g.N(), g.M())
	}
	if e0 != 0 || e1 != 1 || e2 != 2 {
		t.Fatalf("edge ids %d,%d,%d not dense", e0, e1, e2)
	}
	u, v := g.Endpoints(2)
	if u != 3 || v != 1 {
		t.Fatalf("Endpoints(2) = (%d,%d), want (3,1)", u, v)
	}
	// Vertex 1 neighbors both directions of each undirected edge.
	if got := g.OutDegree(1); got != 3 {
		t.Fatalf("deg(1) = %d, want 3", got)
	}
	wantAdj := []int32{0, 2, 3}
	adj := g.OutNeighbors(1)
	for i := range wantAdj {
		if adj[i] != wantAdj[i] {
			t.Fatalf("OutNeighbors(1) = %v, want %v", adj, wantAdj)
		}
	}
	// Undirected: both endpoints see the edge.
	if !hasEdge(g, 0, 1) || !hasEdge(g, 1, 0) {
		t.Fatal("undirected edge must be visible from both endpoints")
	}
	if hasEdge(g, 0, 2) {
		t.Fatal("edge {0,2} should not exist")
	}
}

func TestBuilderBasicDirected(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	g := b.Build()

	if !g.Directed() {
		t.Fatal("graph should be directed")
	}
	if !hasEdge(g, 0, 1) || hasEdge(g, 1, 0) {
		t.Fatal("directed arc must be one-way")
	}
	if g.OutDegree(0) != 1 || len(g.InNeighbors(0)) != 1 {
		t.Fatalf("deg(0): out=%d in=%d, want 1,1", g.OutDegree(0), len(g.InNeighbors(0)))
	}
	in := g.InNeighbors(2)
	if len(in) != 1 || in[0] != 1 {
		t.Fatalf("InNeighbors(2) = %v, want [1]", in)
	}
	ie := g.InEdges(2)
	if len(ie) != 1 || ie[0] != 1 {
		t.Fatalf("InEdges(2) = %v, want [1]", ie)
	}
}

func TestInAccessorsUndirectedAlias(t *testing.T) {
	g := Path(4)
	for u := 0; u < 4; u++ {
		on, in := g.OutNeighbors(u), g.InNeighbors(u)
		if len(on) != len(in) {
			t.Fatalf("vertex %d: in/out neighbor mismatch", u)
		}
		for i := range on {
			if on[i] != in[i] {
				t.Fatalf("vertex %d: in/out neighbor mismatch", u)
			}
		}
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"negative-n", func() { NewBuilder(-1, false) }},
		{"self-loop", func() { NewBuilder(3, false).AddEdge(1, 1) }},
		{"u-out-of-range", func() { NewBuilder(3, false).AddEdge(3, 0) }},
		{"v-negative", func() { NewBuilder(3, false).AddEdge(0, -1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s should panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

func TestEdgeBetween(t *testing.T) {
	b := NewBuilder(5, false)
	want := make(map[[2]int]int)
	want[[2]int{0, 3}] = b.AddEdge(0, 3)
	want[[2]int{3, 4}] = b.AddEdge(3, 4)
	want[[2]int{1, 2}] = b.AddEdge(1, 2)
	g := b.Build()
	for pair, id := range want {
		got, ok := g.EdgeBetween(pair[0], pair[1])
		if !ok || got != id {
			t.Fatalf("EdgeBetween(%v) = %d,%v, want %d,true", pair, got, ok, id)
		}
		// Undirected symmetry.
		got, ok = g.EdgeBetween(pair[1], pair[0])
		if !ok || got != id {
			t.Fatalf("EdgeBetween(reverse %v) = %d,%v, want %d,true", pair, got, ok, id)
		}
	}
	if _, ok := g.EdgeBetween(0, 4); ok {
		t.Fatal("EdgeBetween(0,4) should not exist")
	}
	if _, ok := g.EdgeBetween(-1, 2); ok {
		t.Fatal("EdgeBetween with out-of-range vertex should be false")
	}
	if _, ok := g.EdgeBetween(0, 99); ok {
		t.Fatal("EdgeBetween with out-of-range vertex should be false")
	}
}

func TestEdgesIteration(t *testing.T) {
	g := Path(4)
	var seen [][3]int
	g.Edges(func(e, u, v int) { seen = append(seen, [3]int{e, u, v}) })
	want := [][3]int{{0, 0, 1}, {1, 1, 2}, {2, 2, 3}}
	if len(seen) != len(want) {
		t.Fatalf("Edges visited %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("Edges visited %v, want %v", seen, want)
		}
	}
}

func TestValidateDuplicates(t *testing.T) {
	b := NewBuilder(3, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // same undirected edge again
	g := b.Build()
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should flag duplicate undirected edge")
	}
	if err := Path(5).Validate(); err != nil {
		t.Fatalf("Path(5) should validate: %v", err)
	}
	// Directed: (0,1) and (1,0) are distinct arcs, not duplicates.
	db := NewBuilder(2, true)
	db.AddEdge(0, 1)
	db.AddEdge(1, 0)
	if err := db.Build().Validate(); err != nil {
		t.Fatalf("opposite arcs should validate: %v", err)
	}
}

func TestReverse(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	r := g.Reverse()
	if !hasEdge(r, 1, 0) || !hasEdge(r, 2, 1) || hasEdge(r, 0, 1) {
		t.Fatal("Reverse did not flip arcs")
	}
	// Edge ids preserved.
	u, v := r.Endpoints(0)
	if u != 1 || v != 0 {
		t.Fatalf("reversed edge 0 = (%d,%d), want (1,0)", u, v)
	}
	// Undirected reverse is the identity.
	p := Path(3)
	if p.Reverse() != p {
		t.Fatal("undirected Reverse should return the receiver")
	}
}

func TestStringer(t *testing.T) {
	if got := Path(3).String(); got != "undirected graph: n=3 m=2" {
		t.Fatalf("String() = %q", got)
	}
	if got := Clique(3, true).String(); got != "directed graph: n=3 m=6" {
		t.Fatalf("String() = %q", got)
	}
}

// Property: adjacency lists are sorted and consistent with the edge list
// for random graphs.
func TestQuickCSRConsistency(t *testing.T) {
	f := func(seed uint64, nRaw, dirRaw uint8) bool {
		n := int(nRaw)%20 + 2
		directed := dirRaw%2 == 0
		r := rng.New(seed)
		g := Gnp(n, 0.3, directed, r)

		// Every edge-list entry appears in the right adjacency rows.
		type key struct{ u, v int }
		inAdj := make(map[key]int)
		for u := 0; u < n; u++ {
			adj := g.OutNeighbors(u)
			if !slices.IsSorted(adj) {
				return false
			}
			for _, v := range adj {
				inAdj[key{u, int(v)}]++
			}
		}
		count := 0
		ok := true
		g.Edges(func(e, u, v int) {
			count++
			if inAdj[key{u, v}] == 0 {
				ok = false
			}
			if !directed && inAdj[key{v, u}] == 0 {
				ok = false
			}
		})
		if !ok || count != g.M() {
			return false
		}
		// Degree sum handshake.
		want := g.M()
		if !directed {
			want *= 2
		}
		sum := 0
		for u := range n {
			sum += g.OutDegree(u)
		}
		return sum == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: InEdges/InNeighbors of a directed graph agree with a reverse
// scan of the edge list.
func TestQuickReverseCSR(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%15 + 2
		r := rng.New(seed)
		g := Gnp(n, 0.4, true, r)
		wantIn := make(map[int][]int)
		g.Edges(func(e, u, v int) { wantIn[v] = append(wantIn[v], u) })
		for v := 0; v < n; v++ {
			var got []int
			for _, u := range g.InNeighbors(v) {
				got = append(got, int(u))
			}
			want := wantIn[v]
			slices.Sort(want)
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
