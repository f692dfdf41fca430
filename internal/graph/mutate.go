package graph

import (
	"fmt"
	"slices"
)

// Owner-only mutation. A Graph is immutable through its public query
// surface, and every shared substrate (cached families, networks handed to
// concurrent queries) must stay that way. ReplaceEdges is the deliberate
// exception: it replaces the edge set *in place*, reusing every backing
// array, for graphs a single owner holds exclusively — the per-worker
// support graphs of incremental scenario models
// (avail.IncrementalScenario), whose topology changes every Monte-Carlo
// trial. Callers own the full synchronization burden: no concurrent reader
// or writer may touch the graph during a mutation, exactly like
// temporal.Network.Relabel.

// mutScratch holds the CSR fill cursors and the adjacency sort buffer
// ReplaceEdges reuses. It hangs off the Graph lazily so read-only graphs
// never pay for it, and so a steady-state loop of one ReplaceEdges per
// trial allocates nothing.
type mutScratch struct {
	pos  []int32  // per-vertex fill cursor for CSR scatter
	rpos []int32  // reverse-CSR fill cursor (directed graphs)
	sort []uint64 // sortAdj's packed (neighbor, edge) buffer
}

func (g *Graph) scratch() *mutScratch {
	if g.mut == nil {
		g.mut = &mutScratch{}
	}
	return g.mut
}

// growI32 returns s resized to length n, reusing its backing array when
// the capacity allows and otherwise growing it with headroom, as append
// does, so a run of ever larger edge lists reallocates only when a size
// outgrows the capacity; contents are unspecified.
func growI32(s []int32, n int) []int32 {
	return slices.Grow(s[:0], n)[:n]
}

// validateEdges checks ranges and self-loops for a prospective edge list.
func (g *Graph) validateEdges(from, to []int32) error {
	if len(from) != len(to) {
		return fmt.Errorf("graph: %d sources but %d targets", len(from), len(to))
	}
	for i := range from {
		u, v := from[i], to[i]
		if u < 0 || int(u) >= g.n || v < 0 || int(v) >= g.n {
			return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
		}
		if u == v {
			return fmt.Errorf("graph: self-loop at %d", u)
		}
	}
	return nil
}

// ReplaceEdges replaces the whole edge set in place: the graph becomes the
// one a fresh Builder fed the same list would build. This is how
// temporal.Network.RelabelEdges moves an incremental scenario's worker
// graph from one trial's edges to the next. The vertex count and
// directedness are fixed; from/to are copied, so the caller may reuse its
// slices immediately. All CSR arrays are rebuilt over the existing backing
// buffers; after the first few calls at a stable edge-count ceiling the
// call allocates nothing.
//
// Validation covers lengths, ranges and self-loops, and runs before any
// mutation, so a failed call leaves the graph unchanged. Duplicate edges
// are the caller's concern, exactly as with Builder.AddEdge; edge
// identifiers are assigned in slice order, exactly as a fresh Builder
// would.
func (g *Graph) ReplaceEdges(from, to []int32) error {
	if err := g.validateEdges(from, to); err != nil {
		return err
	}
	g.from = growI32(g.from, len(from))
	copy(g.from, from)
	g.to = growI32(g.to, len(to))
	copy(g.to, to)
	g.rebuildCSR()
	return nil
}

// rebuildCSR is buildCSR with every output and scratch array reused.
func (g *Graph) rebuildCSR() {
	n, m := g.n, len(g.from)
	sc := g.scratch()
	deg := growI32(g.off, n+1)
	clear(deg)
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
	total := int(g.off[n])
	g.adjTo = growI32(g.adjTo, total)
	g.adjEdge = growI32(g.adjEdge, total)
	sc.pos = growI32(sc.pos, n)
	pos := sc.pos
	copy(pos, g.off[:n])
	for e := 0; e < m; e++ {
		p := pos[g.from[e]]
		g.adjTo[p], g.adjEdge[p] = g.to[e], int32(e)
		pos[g.from[e]] = p + 1
		if !g.directed {
			p = pos[g.to[e]]
			g.adjTo[p], g.adjEdge[p] = g.from[e], int32(e)
			pos[g.to[e]] = p + 1
		}
	}
	sc.sort = g.sortAdj(g.off, g.adjTo, g.adjEdge, sc.sort)

	if g.directed {
		rdeg := growI32(g.roff, n+1)
		clear(rdeg)
		for e := 0; e < m; e++ {
			rdeg[g.to[e]+1]++
		}
		for i := 0; i < n; i++ {
			rdeg[i+1] += rdeg[i]
		}
		g.roff = rdeg
		g.radjTo = growI32(g.radjTo, m)
		g.radjEdge = growI32(g.radjEdge, m)
		sc.rpos = growI32(sc.rpos, n)
		rpos := sc.rpos
		copy(rpos, g.roff[:n])
		for e := 0; e < m; e++ {
			v := g.to[e]
			p := rpos[v]
			g.radjTo[p], g.radjEdge[p] = g.from[e], int32(e)
			rpos[v] = p + 1
		}
		sc.sort = g.sortAdj(g.roff, g.radjTo, g.radjEdge, sc.sort)
	}
}
