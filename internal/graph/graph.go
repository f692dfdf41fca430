package graph

import (
	"fmt"
	"slices"
)

// Graph is a simple (di)graph in CSR form, immutable through its query
// surface. Build one with a Builder or a generator; the zero value is an
// empty graph with no vertices. The only mutation entry points are the
// owner-only ReplaceEdges/ApplyEdgeDelta in mutate.go, used by incremental
// scenario models on graphs they hold exclusively; a graph that is shared
// must never be mutated.
type Graph struct {
	n        int
	directed bool

	// Edge list: edge e goes from from[e] to to[e]. For undirected graphs
	// the orientation is storage order only.
	from, to []int32

	// Forward CSR: out-adjacency (undirected: full adjacency).
	off     []int32 // length n+1
	adjTo   []int32 // length = #adjacency entries
	adjEdge []int32 // edge id parallel to adjTo

	// Reverse CSR for directed graphs (in-adjacency). nil when undirected;
	// accessors fall back to the forward CSR in that case.
	roff     []int32
	radjTo   []int32
	radjEdge []int32

	// Scratch for the owner-only mutation path (mutate.go). nil until the
	// first ReplaceEdges/ApplyEdgeDelta call; read-only graphs never pay.
	mut *mutScratch
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	n        int
	directed bool
	from, to []int32
}

// NewBuilder returns a builder for a graph on n vertices. It panics if
// n < 0.
func NewBuilder(n int, directed bool) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n, directed: directed}
}

// AddEdge appends the edge (u,v) — an arc when the graph is directed — and
// returns its edge identifier. Self-loops are rejected with a panic: the
// paper's networks are simple, and a self-loop can never appear on a
// journey. Duplicate detection is the caller's concern (generators never
// produce duplicates; Graph.Validate checks when in doubt).
func (b *Builder) AddEdge(u, v int) int {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	b.from = append(b.from, int32(u))
	b.to = append(b.to, int32(v))
	return len(b.from) - 1
}

// Build finalizes the graph. The builder must not be used afterwards.
func (b *Builder) Build() *Graph {
	g := &Graph{n: b.n, directed: b.directed, from: b.from, to: b.to}
	g.buildCSR()
	return g
}

func (g *Graph) buildCSR() {
	n, m := g.n, len(g.from)
	deg := make([]int32, n+1)
	for e := 0; e < m; e++ {
		deg[g.from[e]+1]++
		if !g.directed {
			deg[g.to[e]+1]++
		}
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	g.off = deg
	total := g.off[n]
	g.adjTo = make([]int32, total)
	g.adjEdge = make([]int32, total)
	pos := make([]int32, n)
	copy(pos, g.off[:n])
	place := func(u, v, e int32) {
		p := pos[u]
		g.adjTo[p] = v
		g.adjEdge[p] = e
		pos[u] = p + 1
	}
	for e := 0; e < m; e++ {
		place(g.from[e], g.to[e], int32(e))
		if !g.directed {
			place(g.to[e], g.from[e], int32(e))
		}
	}
	g.sortAdj(g.off, g.adjTo, g.adjEdge)

	if g.directed {
		rdeg := make([]int32, n+1)
		for e := 0; e < m; e++ {
			rdeg[g.to[e]+1]++
		}
		for i := 0; i < n; i++ {
			rdeg[i+1] += rdeg[i]
		}
		g.roff = rdeg
		g.radjTo = make([]int32, m)
		g.radjEdge = make([]int32, m)
		rpos := make([]int32, n)
		copy(rpos, g.roff[:n])
		for e := 0; e < m; e++ {
			v := g.to[e]
			p := rpos[v]
			g.radjTo[p] = g.from[e]
			g.radjEdge[p] = int32(e)
			rpos[v] = p + 1
		}
		g.sortAdj(g.roff, g.radjTo, g.radjEdge)
	}
}

// sortAdj sorts every vertex's adjacency slice by neighbor id so EdgeBetween
// can binary-search. The parallel (neighbor, edge) pairs are packed into
// one uint64 each so the alloc-free slices.Sort applies; the shared buffer
// makes the whole pass a single allocation.
func (g *Graph) sortAdj(off, adjTo, adjEdge []int32) {
	var buf []uint64
	for u := 0; u < g.n; u++ {
		lo, hi := off[u], off[u+1]
		seg := adjTo[lo:hi]
		if len(seg) < 2 || slices.IsSorted(seg) {
			continue
		}
		eseg := adjEdge[lo:hi]
		buf = buf[:0]
		for i := range seg {
			buf = append(buf, uint64(uint32(seg[i]))<<32|uint64(uint32(eseg[i])))
		}
		slices.Sort(buf)
		for i, p := range buf {
			seg[i] = int32(p >> 32)
			eseg[i] = int32(uint32(p))
		}
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges (arcs when directed).
func (g *Graph) M() int { return len(g.from) }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// Endpoints returns the endpoints of edge e in storage orientation.
func (g *Graph) Endpoints(e int) (u, v int) {
	return int(g.from[e]), int(g.to[e])
}

// OutDegree returns the out-degree of u (degree when undirected).
func (g *Graph) OutDegree(u int) int {
	return int(g.off[u+1] - g.off[u])
}

// OutNeighbors returns u's out-neighbors as a shared slice that must not be
// modified.
func (g *Graph) OutNeighbors(u int) []int32 {
	return g.adjTo[g.off[u]:g.off[u+1]]
}

// OutEdges returns the edge ids leaving u, parallel to OutNeighbors. The
// slice is shared and must not be modified.
func (g *Graph) OutEdges(u int) []int32 {
	return g.adjEdge[g.off[u]:g.off[u+1]]
}

// InNeighbors returns u's in-neighbors (undirected: all neighbors). The
// slice is shared and must not be modified.
func (g *Graph) InNeighbors(u int) []int32 {
	if !g.directed {
		return g.OutNeighbors(u)
	}
	return g.radjTo[g.roff[u]:g.roff[u+1]]
}

// InEdges returns the ids of edges entering u, parallel to InNeighbors. The
// slice is shared and must not be modified.
func (g *Graph) InEdges(u int) []int32 {
	if !g.directed {
		return g.OutEdges(u)
	}
	return g.radjEdge[g.roff[u]:g.roff[u+1]]
}

// EdgeBetween returns the identifier of the arc (u,v) (undirected: the edge
// {u,v}) and whether it exists. If parallel edges were built, the one with
// the smallest adjacency position is returned.
func (g *Graph) EdgeBetween(u, v int) (int, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return -1, false
	}
	adj := g.OutNeighbors(u)
	if i, ok := slices.BinarySearch(adj, int32(v)); ok {
		return int(g.OutEdges(u)[i]), true
	}
	return -1, false
}

// Edges calls fn(e, u, v) for every edge in identifier order.
func (g *Graph) Edges(fn func(e, u, v int)) {
	for e := range g.from {
		fn(e, int(g.from[e]), int(g.to[e]))
	}
}

// FromArray returns the edge-indexed array of source endpoints (storage
// orientation for undirected graphs). The slice is shared and must not be
// modified; it exists so per-edge hot loops can avoid Endpoints call
// overhead.
func (g *Graph) FromArray() []int32 { return g.from }

// ToArray returns the edge-indexed array of target endpoints, parallel to
// FromArray. The slice is shared and must not be modified.
func (g *Graph) ToArray() []int32 { return g.to }

// Validate checks structural invariants — no duplicate arcs/edges — and
// returns a descriptive error for the first violation. Generators in this
// package always produce valid graphs; Validate is the oracle the
// generator, edge-mutation and RelabelEdges tests check their graphs with.
func (g *Graph) Validate() error {
	for u := 0; u < g.n; u++ {
		adj := g.OutNeighbors(u)
		for i := 1; i < len(adj); i++ {
			if adj[i] == adj[i-1] {
				return fmt.Errorf("graph: duplicate edge (%d,%d)", u, adj[i])
			}
		}
	}
	return nil
}

// Reverse returns the graph with every arc reversed. For undirected graphs
// it returns the receiver (reversal is the identity). Edge identifiers are
// preserved: arc e = (u,v) becomes arc e = (v,u).
func (g *Graph) Reverse() *Graph {
	if !g.directed {
		return g
	}
	b := NewBuilder(g.n, true)
	for e := range g.from {
		b.AddEdge(int(g.to[e]), int(g.from[e]))
	}
	return b.Build()
}

// String summarizes the graph.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	return fmt.Sprintf("%s graph: n=%d m=%d", kind, g.n, g.M())
}
