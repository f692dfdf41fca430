package phonecall

import (
	"repro/internal/graph"
	"repro/internal/rng"
)

// Result reports one broadcast simulation.
type Result struct {
	// Rounds is the number of synchronous rounds until every vertex was
	// informed (0 if the source alone is the graph).
	Rounds int
	// Transmissions counts every call that carried the rumor in either
	// direction.
	Transmissions int
	// Informed is the number of informed vertices at the end.
	Informed int
	// All reports whether the rumor reached every vertex before maxRounds.
	All bool
}

// Push simulates PUSH rumor spreading from source on g: each round, every
// informed vertex sends the rumor to one uniformly random out-neighbor.
// It stops when everyone is informed or after maxRounds (≤ 0 means 64·n
// as a generous default bound).
func Push(g *graph.Graph, source int, maxRounds int, r *rng.Stream) Result {
	return simulate(g, source, maxRounds, r, true, false)
}

// PushPull simulates PUSH-PULL: every vertex (informed or not) calls a
// random neighbor; the rumor crosses the call in whichever direction it
// can. Karp et al. show this saves a log factor of transmissions on the
// clique; the experiments reproduce the shape.
func PushPull(g *graph.Graph, source int, maxRounds int, r *rng.Stream) Result {
	return simulate(g, source, maxRounds, r, true, true)
}

func simulate(g *graph.Graph, source, maxRounds int, r *rng.Stream, push, pull bool) Result {
	n := g.N()
	res := Result{}
	if n == 0 {
		res.All = true
		return res
	}
	if maxRounds <= 0 {
		maxRounds = 64 * n
	}
	informed := make([]bool, n)
	informed[source] = true
	count := 1
	// was snapshots the round-start state: calls within a round are
	// simultaneous, so a vertex informed this round must not act on the
	// rumor until the next round.
	was := make([]bool, n)
	for round := 1; round <= maxRounds && count < n; round++ {
		copy(was, informed)
		for u := 0; u < n; u++ {
			deg := g.OutDegree(u)
			if deg == 0 {
				continue
			}
			if !was[u] && !pull {
				// Pure PUSH: uninformed vertices do not call.
				continue
			}
			v := int(g.OutNeighbors(u)[r.Intn(deg)])
			if push && was[u] {
				res.Transmissions++
				if !informed[v] {
					informed[v] = true
					count++
				}
			}
			if pull && !was[u] && was[v] {
				res.Transmissions++
				if !informed[u] {
					informed[u] = true
					count++
				}
			}
		}
		res.Rounds = round
	}
	res.Informed = count
	res.All = count == n
	return res
}
