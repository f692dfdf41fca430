package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestBFSPath(t *testing.T) {
	g := Path(5)
	dist := BFS(g, 0)
	for v := 0; v < 5; v++ {
		if dist[v] != int32(v) {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], v)
		}
	}
	dist = BFS(g, 2)
	want := []int32{2, 1, 0, 1, 2}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("BFS from 2: dist = %v, want %v", dist, want)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	b := NewBuilder(4, false)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	dist := BFS(g, 0)
	if dist[2] != -1 || dist[3] != -1 {
		t.Fatalf("unreachable vertices should be -1, got %v", dist)
	}
	if dist[1] != 1 {
		t.Fatalf("dist[1] = %d", dist[1])
	}
}

func TestBFSDirectedRespectsOrientation(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	if d := BFS(g, 0); d[2] != 2 {
		t.Fatalf("forward reach failed: %v", d)
	}
	if d := BFS(g, 2); d[0] != -1 {
		t.Fatalf("backward reach should fail: %v", d)
	}
}

func TestShortestPath(t *testing.T) {
	g := Cycle(6)
	p := ShortestPath(g, 0, 3)
	if len(p) != 4 {
		t.Fatalf("C_6 shortest path 0->3 = %v, want length 4", p)
	}
	if p[0] != 0 || p[len(p)-1] != 3 {
		t.Fatalf("path endpoints wrong: %v", p)
	}
	// Consecutive vertices must be adjacent.
	for i := 0; i+1 < len(p); i++ {
		if !hasEdge(g, p[i], p[i+1]) {
			t.Fatalf("path step %v-%v not an edge", p[i], p[i+1])
		}
	}
	if p := ShortestPath(g, 2, 2); len(p) != 1 || p[0] != 2 {
		t.Fatalf("trivial path = %v", p)
	}
	// Unreachable.
	b := NewBuilder(3, false)
	b.AddEdge(0, 1)
	if p := ShortestPath(b.Build(), 0, 2); p != nil {
		t.Fatalf("unreachable path = %v, want nil", p)
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(7, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	// 5, 6 isolated
	g := b.Build()
	comp, count := ConnectedComponents(g)
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("0,1,2 should share a component")
	}
	if comp[3] != comp[4] {
		t.Fatal("3,4 should share a component")
	}
	if comp[5] == comp[6] || comp[5] == comp[0] {
		t.Fatal("isolated vertices should be their own components")
	}
}

func TestIsConnected(t *testing.T) {
	if !IsConnected(Path(10)) {
		t.Fatal("path should be connected")
	}
	b := NewBuilder(3, false)
	b.AddEdge(0, 1)
	if IsConnected(b.Build()) {
		t.Fatal("graph with isolated vertex should be disconnected")
	}
	if !IsConnected(NewBuilder(0, false).Build()) {
		t.Fatal("empty graph counts as connected")
	}
	if !IsConnected(NewBuilder(1, false).Build()) {
		t.Fatal("single vertex is connected")
	}
}

func TestDirectedGuards(t *testing.T) {
	dg := Clique(3, true)
	for name, fn := range map[string]func(){
		"components":    func() { ConnectedComponents(dg) },
		"is-connected":  func() { IsConnected(dg) },
		"spanning-tree": func() { SpanningTree(dg) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on directed graph should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSCCSimple(t *testing.T) {
	// Two 3-cycles joined by a one-way bridge.
	b := NewBuilder(6, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3) // bridge
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 3)
	g := b.Build()
	comp, count := StronglyConnectedComponents(g)
	if count != 2 {
		t.Fatalf("SCC count = %d, want 2", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("first cycle should be one SCC")
	}
	if comp[3] != comp[4] || comp[4] != comp[5] {
		t.Fatal("second cycle should be one SCC")
	}
	if comp[0] == comp[3] {
		t.Fatal("the two cycles must be distinct SCCs")
	}
	// Reverse topological order: the sink component (3,4,5) gets id 0.
	if comp[3] != 0 || comp[0] != 1 {
		t.Fatalf("SCC ids not in reverse topological order: %v", comp)
	}
}

func TestSCCDag(t *testing.T) {
	b := NewBuilder(4, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	_, count := StronglyConnectedComponents(b.Build())
	if count != 4 {
		t.Fatalf("DAG SCC count = %d, want 4", count)
	}
}

func TestIsStronglyConnected(t *testing.T) {
	if !IsStronglyConnected(Clique(5, true)) {
		t.Fatal("directed clique should be strongly connected")
	}
	b := NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	if IsStronglyConnected(b.Build()) {
		t.Fatal("one-way path is not strongly connected")
	}
	if !IsStronglyConnected(NewBuilder(0, true).Build()) {
		t.Fatal("empty graph counts as strongly connected")
	}
	// Undirected graphs work too (SCC == CC).
	if !IsStronglyConnected(Path(4)) {
		t.Fatal("connected undirected graph should be 'strongly connected'")
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := Path(7)
	if ecc := slices.Max(BFS(g, 3)); ecc != 3 {
		t.Fatalf("ecc(middle) = %d, want 3", ecc)
	}
	if ecc := slices.Max(BFS(g, 0)); ecc != 6 {
		t.Fatalf("ecc(end) = %d, want 6", ecc)
	}
	d, conn := Diameter(g)
	if !conn || d != 6 {
		t.Fatalf("diameter = %d,%v", d, conn)
	}
}

func TestDiameterDisconnected(t *testing.T) {
	b := NewBuilder(5, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	d, conn := Diameter(b.Build())
	if conn {
		t.Fatal("disconnected graph reported connected")
	}
	if d != 2 {
		t.Fatalf("max reachable diameter = %d, want 2", d)
	}
}

func TestDiameterDirected(t *testing.T) {
	// Directed cycle: diameter n-1.
	b := NewBuilder(5, true)
	for v := 0; v < 5; v++ {
		b.AddEdge(v, (v+1)%5)
	}
	d, conn := Diameter(b.Build())
	if !conn || d != 4 {
		t.Fatalf("directed C_5 diameter = %d,%v, want 4,true", d, conn)
	}
}

func TestDiameterEmptyAndSingle(t *testing.T) {
	if d, conn := Diameter(NewBuilder(0, false).Build()); d != 0 || !conn {
		t.Fatal("empty graph diameter")
	}
	if d, conn := Diameter(NewBuilder(1, false).Build()); d != 0 || !conn {
		t.Fatal("single vertex diameter")
	}
}

func TestSpanningTree(t *testing.T) {
	g := Clique(6, false)
	tree := SpanningTree(g)
	if len(tree) != 5 {
		t.Fatalf("spanning tree has %d edges, want 5", len(tree))
	}
	// The tree edges alone must connect the graph.
	b := NewBuilder(6, false)
	for _, e := range tree {
		u, v := g.Endpoints(e)
		b.AddEdge(u, v)
	}
	if !IsConnected(b.Build()) {
		t.Fatal("spanning tree edges do not connect the graph")
	}
}

func TestSpanningTreeDisconnected(t *testing.T) {
	b := NewBuilder(4, false)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	tree := SpanningTree(b.Build())
	if len(tree) != 2 {
		t.Fatalf("forest has %d edges, want 2", len(tree))
	}
}

// Property: BFS distances satisfy the triangle-ish BFS invariant: for every
// edge (u,v), |dist[u]-dist[v]| <= 1 when both reachable (undirected).
func TestQuickBFSInvariant(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%40 + 2
		g := Gnp(n, 0.15, false, rng.New(seed))
		dist := BFS(g, 0)
		ok := true
		g.Edges(func(e, u, v int) {
			du, dv := dist[u], dist[v]
			if du >= 0 && dv >= 0 {
				d := du - dv
				if d < -1 || d > 1 {
					ok = false
				}
			}
			if (du < 0) != (dv < 0) {
				ok = false // an edge cannot cross the reachability boundary
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: SCC labels agree with pairwise mutual reachability on small
// random digraphs.
func TestQuickSCCMutualReachability(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%10 + 2
		g := Gnp(n, 0.25, true, rng.New(seed))
		comp, _ := StronglyConnectedComponents(g)
		// reach[u][v] via BFS from every vertex.
		reach := make([][]bool, n)
		for u := 0; u < n; u++ {
			dist := BFS(g, u)
			reach[u] = make([]bool, n)
			for v := 0; v < n; v++ {
				reach[u][v] = dist[v] >= 0
			}
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				mutual := reach[u][v] && reach[v][u]
				if mutual != (comp[u] == comp[v]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: ConnectedComponents and SCC agree on undirected graphs.
func TestQuickComponentsAgree(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%30 + 1
		g := Gnp(n, 0.1, false, rng.New(seed))
		_, cc := ConnectedComponents(g)
		_, scc := StronglyConnectedComponents(g)
		return cc == scc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBFSGrid(b *testing.B) {
	g := Grid(100, 100)
	dist := make([]int32, g.N())
	queue := make([]int32, 0, g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BFSInto(g, i%g.N(), dist, queue)
	}
}

func BenchmarkDiameterHypercube10(b *testing.B) {
	g := Hypercube(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Diameter(g)
	}
}
