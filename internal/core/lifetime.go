package core

import (
	"math"

	"repro/internal/graph"
	"repro/internal/temporal"
)

// This file carries the Theorem 5 machinery. The proof observes that in a
// uniform random temporal clique with lifetime a, the edges carrying a
// label ≤ k form an Erdős–Rényi graph G(n, p) with p = k/a; if the
// temporal diameter were k, that prefix graph would have to be connected,
// so k must exceed the G(n,p) connectivity threshold p = ln n / n, giving
// TD = Ω((a/n)·ln n).

// PrefixSubgraph returns the static graph on the same vertex set containing
// exactly the edges of net that carry at least one label ≤ k. Edge
// identifiers are not preserved (the result is a fresh graph). It is the
// oracle half of PrefixConnected; no production path builds prefix graphs.
func PrefixSubgraph(net *temporal.Network, k int32) *graph.Graph {
	g := net.Graph()
	b := graph.NewBuilder(g.N(), g.Directed())
	g.Edges(func(e, u, v int) {
		labels := net.EdgeLabels(e)
		if len(labels) > 0 && labels[0] <= k {
			b.AddEdge(u, v)
		}
	})
	return b.Build()
}

// PrefixConnected reports whether the label-prefix subgraph at time k is
// connected (strongly connected for directed networks) — the necessary
// condition for the temporal diameter to be at most k. It is an oracle:
// it builds the prefix graph per call, so E1b asks temporal.ConnectedPrefix
// for the least such k instead, and the differential tests pin that kernel
// to a bisection over this function.
func PrefixConnected(net *temporal.Network, k int32) bool {
	sub := PrefixSubgraph(net, k)
	if sub.Directed() {
		return graph.IsStronglyConnected(sub)
	}
	return graph.IsConnected(sub)
}

// ConnectivityThresholdP returns ln n / n, the sharp Erdős–Rényi
// connectivity threshold the proofs of Theorem 5 and the Ω(log n) remark
// rest on.
func ConnectivityThresholdP(n int) float64 {
	if n < 2 {
		return 0
	}
	return math.Log(float64(n)) / float64(n)
}

// LifetimeLowerBound returns the Theorem 5 lower-bound scale (a/n)·ln n for
// the temporal diameter of the uniform random temporal clique with
// lifetime a: any k below it leaves the prefix graph G(n, k/a)
// disconnected whp.
func LifetimeLowerBound(n int, a int) float64 {
	if n < 2 {
		return 0
	}
	return float64(a) / float64(n) * math.Log(float64(n))
}

// TDUpperBoundScale returns the Theorem 4 upper-bound scale ln n: the
// temporal diameter of the normalized uniform random temporal clique is at
// most γ·ln n whp for a constant γ > 1. Experiments divide measured
// diameters by this to estimate γ.
func TDUpperBoundScale(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Log(float64(n))
}
