package core

import (
	"repro/internal/temporal"
)

// SpreadTree is the who-informed-whom forest of one flooding run: the
// first transmission to reach each vertex, which together form a foremost
// broadcast tree rooted at the source. Its depth profile explains *why*
// dissemination is logarithmic — the paper's expansion intuition made
// visible on real runs.
type SpreadTree struct {
	// Source is the broadcast root.
	Source int
	// Parent[v] is the vertex whose transmission first informed v
	// (-1 for the source and for never-informed vertices).
	Parent []int32
	// HopDepth[v] is v's depth in the tree (0 for the source, -1 if never
	// informed).
	HopDepth []int32
	// Edge[v] is the edge id of the informing transmission (-1 for the
	// source and never-informed vertices).
	Edge []int32
	// InformedAt mirrors SpreadResult.InformedAt.
	InformedAt []int32
}

// BuildSpreadTree replays the flooding protocol recording, for each
// vertex, the transmission that first informed it.
func BuildSpreadTree(net *temporal.Network, source int) SpreadTree {
	g := net.Graph()
	n := g.N()
	tr := SpreadTree{
		Source:     source,
		Parent:     make([]int32, n),
		HopDepth:   make([]int32, n),
		Edge:       make([]int32, n),
		InformedAt: make([]int32, n),
	}
	for i := range tr.Parent {
		tr.Parent[i] = -1
		tr.HopDepth[i] = -1
		tr.Edge[i] = -1
		tr.InformedAt[i] = temporal.Unreachable
	}
	tr.InformedAt[source] = 0
	tr.HopDepth[source] = 0
	directed := g.Directed()
	net.TimeEdges(func(e, u, v int, l int32) {
		if tr.InformedAt[u] < l && l < tr.InformedAt[v] {
			tr.InformedAt[v] = l
			tr.Parent[v] = int32(u)
			tr.Edge[v] = int32(e)
			tr.HopDepth[v] = tr.HopDepth[u] + 1
		}
		if !directed && tr.InformedAt[v] < l && l < tr.InformedAt[u] {
			tr.InformedAt[u] = l
			tr.Parent[u] = int32(v)
			tr.Edge[u] = int32(e)
			tr.HopDepth[u] = tr.HopDepth[v] + 1
		}
	})
	return tr
}

// MaxDepth returns the deepest informed vertex's hop depth (0 when only
// the source is informed).
func (t SpreadTree) MaxDepth() int32 {
	var max int32
	for _, d := range t.HopDepth {
		if d > max {
			max = d
		}
	}
	return max
}
