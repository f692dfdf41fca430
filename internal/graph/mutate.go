package graph

import "fmt"

// Owner-only mutation. A Graph is immutable through its public query
// surface, and every shared substrate (cached families, networks handed to
// concurrent queries) must stay that way. The two methods in this file are
// the deliberate exception: they replace or patch the edge set *in place*,
// reusing every backing array, for graphs a single owner holds exclusively —
// the per-worker support graphs of incremental scenario models
// (avail.IncrementalScenario), whose topology changes every Monte-Carlo
// trial. Callers own the full synchronization burden: no concurrent reader
// or writer may touch the graph during a mutation, exactly like
// temporal.Network.Relabel.

// mutScratch holds the reusable work arrays edge mutation needs. It hangs
// off the Graph lazily so read-only graphs never pay for it, and so a
// steady-state mutation loop (one ReplaceEdges or ApplyEdgeDelta per trial)
// allocates nothing.
type mutScratch struct {
	pos  []int32 // per-vertex fill cursor for CSR scatter
	rpos []int32 // reverse-CSR fill cursor (directed graphs)

	// Delta-patch double buffers: the merged edge list and adjacency are
	// built here, then swapped with the live arrays, so a failed patch
	// leaves the graph untouched and the old arrays become the next
	// patch's scratch.
	from, to       []int32
	newID          []int32
	off            []int32
	adjTo, adjEdge []int32

	// Inserted-edge adjacency in CSR form (counting-sorted per vertex).
	insOff             []int32
	insAdjTo, insAdjID []int32
}

func (g *Graph) scratch() *mutScratch {
	if g.mut == nil {
		g.mut = &mutScratch{}
	}
	return g.mut
}

// growI32 returns s resized to length n, reusing its backing array when the
// capacity allows; contents are unspecified.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
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

// ReplaceEdges replaces the whole edge set in place — the high-churn half
// of the incremental-topology engine (temporal.Network.RelabelEdges falls
// back to it past its churn threshold). The vertex count and directedness
// are fixed; from/to are copied, so the caller may reuse its slices
// immediately. All CSR arrays are rebuilt over the existing backing
// buffers; after the first few calls at a stable edge-count ceiling the
// call allocates nothing.
//
// Validation covers ranges and self-loops. Duplicate edges are the
// caller's concern, exactly as with Builder.AddEdge; edge identifiers are
// assigned in slice order, exactly as a fresh Builder would.
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
	g.sortAdj(g.off, g.adjTo, g.adjEdge)

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
		g.sortAdj(g.roff, g.radjTo, g.radjEdge)
	}
}

// edgeKey orders undirected canonical edges lexicographically by (from, to).
func edgeKey(n int, u, v int32) int64 { return int64(u)*int64(n) + int64(v) }

// CanonicalEdges reports whether the edge list is in canonical undirected
// order: from[e] < to[e] for every edge and edges strictly increasing by
// (from, to). ApplyEdgeDelta requires it; scenario generators that emit
// sorted close-pair sets produce it naturally, which sim's
// batch_internal_test.go asserts through it.
func (g *Graph) CanonicalEdges() bool {
	if g.directed {
		return false
	}
	prev := int64(-1)
	for e := range g.from {
		if g.from[e] >= g.to[e] {
			return false
		}
		k := edgeKey(g.n, g.from[e], g.to[e])
		if k <= prev {
			return false
		}
		prev = k
	}
	return true
}

// ApplyEdgeDelta patches the edge set of a canonically-ordered undirected
// graph: the edges whose current identifiers appear in remove (ascending,
// unique) are dropped and the edges (insFrom[i], insTo[i]) — themselves in
// canonical order, not already present — are added. The canonical order is
// maintained, so edge identifiers after the patch are exactly the ones a
// fresh Builder fed the merged edge list would assign.
//
// Unlike ReplaceEdges this is a true patch: one merge pass splices the
// edge arrays, the new identifier of every surviving edge falls out of the
// same walk, and the packed adjacency (adjTo/adjEdge) is rebuilt by
// per-vertex sorted merges of surviving and inserted entries — sequential
// copies with an identifier remap, no counting scatter and no re-sort. All
// work lands in double buffers that swap in only on success, so a failed
// patch (out-of-range ids, non-canonical input, duplicate insert) leaves
// the graph unchanged.
func (g *Graph) ApplyEdgeDelta(remove, insFrom, insTo []int32) error {
	if g.directed {
		return fmt.Errorf("graph: ApplyEdgeDelta requires an undirected graph")
	}
	if err := g.validateEdges(insFrom, insTo); err != nil {
		return err
	}
	m := len(g.from)
	for i, r := range remove {
		if r < 0 || int(r) >= m {
			return fmt.Errorf("graph: remove id %d out of range [0,%d)", r, m)
		}
		if i > 0 && r <= remove[i-1] {
			return fmt.Errorf("graph: remove ids not strictly ascending at %d", r)
		}
	}
	prev := int64(-1)
	for i := range insFrom {
		if insFrom[i] >= insTo[i] {
			return fmt.Errorf("graph: insert (%d,%d) not canonical (from < to)", insFrom[i], insTo[i])
		}
		k := edgeKey(g.n, insFrom[i], insTo[i])
		if k <= prev {
			return fmt.Errorf("graph: inserts not strictly ascending at (%d,%d)", insFrom[i], insTo[i])
		}
		prev = k
	}
	newM := m - len(remove) + len(insFrom)

	// Merge pass: splice the edge list, assigning post-patch identifiers.
	// newID[e] is the surviving edge's new identifier (-1 when removed);
	// inserted edge i becomes identifier insID[i] (recomputed on the fly in
	// the adjacency pass below, so it needs no array).
	sc := g.scratch()
	sc.from = growI32(sc.from, newM)
	sc.to = growI32(sc.to, newM)
	sc.newID = growI32(sc.newID, m)
	ri, ii, out := 0, 0, int32(0)
	prev = -1
	for e := 0; e < m; e++ {
		if g.from[e] >= g.to[e] {
			return fmt.Errorf("graph: ApplyEdgeDelta requires canonical edges; edge %d is (%d,%d)", e, g.from[e], g.to[e])
		}
		k := edgeKey(g.n, g.from[e], g.to[e])
		if k <= prev {
			return fmt.Errorf("graph: ApplyEdgeDelta requires canonical edges; order breaks at edge %d", e)
		}
		prev = k
		if ri < len(remove) && int(remove[ri]) == e {
			sc.newID[e] = -1
			ri++
			continue
		}
		for ii < len(insFrom) && edgeKey(g.n, insFrom[ii], insTo[ii]) < k {
			sc.from[out], sc.to[out] = insFrom[ii], insTo[ii]
			out++
			ii++
		}
		if ii < len(insFrom) && edgeKey(g.n, insFrom[ii], insTo[ii]) == k {
			return fmt.Errorf("graph: insert (%d,%d) already present", insFrom[ii], insTo[ii])
		}
		sc.newID[e] = out
		sc.from[out], sc.to[out] = g.from[e], g.to[e]
		out++
	}
	for ii < len(insFrom) {
		sc.from[out], sc.to[out] = insFrom[ii], insTo[ii]
		out++
		ii++
	}

	// Counting-sort the inserted edges into a per-vertex CSR. Because the
	// insert list is canonical, each vertex's entries come out sorted by
	// neighbor with no explicit sort (to-side neighbors w < u precede
	// from-side neighbors v > u, each group ascending).
	n := g.n
	insOff := growI32(sc.insOff, n+1)
	clear(insOff)
	for i := range insFrom {
		insOff[insFrom[i]+1]++
		insOff[insTo[i]+1]++
	}
	for u := 0; u < n; u++ {
		insOff[u+1] += insOff[u]
	}
	sc.insOff = insOff
	sc.insAdjTo = growI32(sc.insAdjTo, 2*len(insFrom))
	sc.insAdjID = growI32(sc.insAdjID, 2*len(insFrom))
	sc.pos = growI32(sc.pos, n)
	copy(sc.pos, insOff[:n])
	// Inserted identifiers fall out of one forward scan of the merged list:
	// inserts appear there in the same canonical order, so each is found by
	// advancing a single cursor — O(newM) total, no search.
	scan := int32(0)
	for i := range insFrom {
		for sc.from[scan] != insFrom[i] || sc.to[scan] != insTo[i] {
			scan++
		}
		u, v := insFrom[i], insTo[i]
		p := sc.pos[u]
		sc.insAdjTo[p], sc.insAdjID[p] = v, scan
		sc.pos[u] = p + 1
		p = sc.pos[v]
		sc.insAdjTo[p], sc.insAdjID[p] = u, scan
		sc.pos[v] = p + 1
		scan++
	}

	// Per-vertex merge of surviving (remapped) and inserted entries.
	newTotal := 2 * newM
	sc.off = growI32(sc.off, n+1)
	sc.adjTo = growI32(sc.adjTo, newTotal)
	sc.adjEdge = growI32(sc.adjEdge, newTotal)
	w := int32(0)
	for u := 0; u < n; u++ {
		sc.off[u] = w
		oi, oe := g.off[u], g.off[u+1]
		xi, xe := insOff[u], insOff[u+1]
		for oi < oe || xi < xe {
			if oi < oe && sc.newID[g.adjEdge[oi]] < 0 {
				oi++ // removed edge: drop its entry
				continue
			}
			switch {
			case xi >= xe || (oi < oe && g.adjTo[oi] < sc.insAdjTo[xi]):
				sc.adjTo[w] = g.adjTo[oi]
				sc.adjEdge[w] = sc.newID[g.adjEdge[oi]]
				oi++
			default:
				sc.adjTo[w] = sc.insAdjTo[xi]
				sc.adjEdge[w] = sc.insAdjID[xi]
				xi++
			}
			w++
		}
	}
	sc.off[n] = w

	// Success: swap the double buffers in. The displaced arrays become the
	// scratch for the next patch.
	g.from, sc.from = sc.from[:newM], g.from
	g.to, sc.to = sc.to[:newM], g.to
	g.off, sc.off = sc.off, g.off
	g.adjTo, sc.adjTo = sc.adjTo[:w], g.adjTo
	g.adjEdge, sc.adjEdge = sc.adjEdge[:w], g.adjEdge
	return nil
}
