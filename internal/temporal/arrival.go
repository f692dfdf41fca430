package temporal

// Single-source earliest-arrival entry points. Row queries run on the
// frontier kernel (engine.go); the one-pair query EarliestArrivalTo scans
// the label-sorted time-edge list instead. The linear-scan and fixpoint
// oracles live in oracle.go.

import "slices"

// EarliestArrivals returns δ(s,·): the earliest arrival time from s to each
// vertex, with arr[s] = 0 and Unreachable for vertices no journey reaches.
func (n *Network) EarliestArrivals(s int) []int32 {
	arr := make([]int32, n.g.N())
	n.EarliestArrivalsInto(s, arr)
	return arr
}

// EarliestArrivalsInto is the allocation-free kernel behind
// EarliestArrivals: arr must have length N() and is overwritten. It returns
// the number of reached vertices, counting s itself.
func (n *Network) EarliestArrivalsInto(s int, arr []int32) int {
	sc := getScratch()
	reached := n.earliestArrivalsFrontier(s, 1, arr, nil, sc)
	putScratch(sc)
	return reached
}

// EarliestArrivalsFromInto is EarliestArrivalsInto restricted to journeys
// whose first hop departs no earlier than start (start ≤ 1 is the
// unrestricted query): arr must have length N() and is overwritten, with
// arr[s] = 0. It returns the number of reached vertices counting s. This
// is the row compute behind a ModeLRU miss in the query index
// (internal/qindex).
func (n *Network) EarliestArrivalsFromInto(s int, start int32, arr []int32) int {
	if start < 1 {
		start = 1
	}
	sc := getScratch()
	reached := n.earliestArrivalsFrontier(s, start, arr, nil, sc)
	putScratch(sc)
	return reached
}

// EarliestArrivalTo returns δ_start(s,t), the earliest arrival at t of a
// journey from s whose first hop departs no earlier than start (start ≤ 1
// is the unrestricted query): 0 when s == t, Unreachable when no such
// journey exists. It answers the one pair without computing a row: a
// binary search finds the first time edge labelled ≥ start, and a forward
// scan of the label-sorted list relaxes arr[u] < l < arr[v] until t is
// first assigned. Labels arrive in non-decreasing order, so that first
// assignment is already final. The scan reads the list's label column and
// its endpoint column (teEnds, from | to<<32 per time edge) as two
// sequential streams, never the per-vertex index, and allocates nothing in
// steady state. The first scan on a labeling fills the endpoint column
// (one pass over the list, counted as temporal_index_builds_total{index=
// "ends"}); Relabel and RelabelEdges drop it.
//
// It pays off when the row would be expensive and t is reached early in
// the scan, as for late-start point queries (internal/qindex); an
// unreachable t costs the whole suffix of the list, where the frontier
// kernel stops once its queue drains.
func (n *Network) EarliestArrivalTo(s, t int, start int32) int32 {
	if s == t {
		return 0
	}
	n.ensureTimeEdgeEnds()
	start = max(start, 1)
	first, _ := slices.BinarySearch(n.teLabel, start)
	ends := n.teEnds[first:]
	tl := n.teLabel[first:len(n.teEnds)]
	sc := getScratch()
	arr := sc.arrival(n.g.N())
	fillUnreachable(arr)
	// Every scanned label is ≥ start ≥ 1, so s may leave on any of them.
	arr[s] = 0
	directed := n.g.Directed()
	dst := int32(t)
	ans := Unreachable
	for i, uv := range ends {
		l := tl[i]
		u, v := int32(uint32(uv)), int32(uv>>32)
		if arr[u] < l && l < arr[v] {
			if v == dst {
				ans = l
				break
			}
			arr[v] = l
		} else if !directed && arr[v] < l && l < arr[u] {
			if u == dst {
				ans = l
				break
			}
			arr[u] = l
		}
	}
	putScratch(sc)
	return ans
}

// edgeEndpointArrays exposes the graph's parallel from/to arrays through a
// tiny accessor so the scan avoids per-edge Endpoints calls.
func (n *Network) edgeEndpointArrays() (from, to []int32) {
	return n.g.FromArray(), n.g.ToArray()
}

// ForemostJourney returns a foremost (s,t)-journey — one whose arrival time
// equals δ(s,t) — or ok=false when t is unreachable from s. For s == t it
// returns the empty journey.
func (n *Network) ForemostJourney(s, t int) (Journey, bool) {
	return n.foremostRestricted(s, t, 1)
}

// ForemostJourneyFrom is ForemostJourney restricted to journeys whose
// first hop departs no earlier than start: the journey arrives at exactly
// EarliestArrivalsFromInto's δ_start(s,t), or ok=false when no such
// journey exists. start ≤ 1 is the unrestricted query.
func (n *Network) ForemostJourneyFrom(s, t int, start int32) (Journey, bool) {
	if start < 1 {
		start = 1
	}
	return n.foremostRestricted(s, t, start)
}

// foremostRestricted is ForemostJourney over journeys departing no earlier
// than start: one frontier pass with predecessor recording, then a
// backwards trace over the recorded time edges. FastestJourney reuses it
// for the winning departure window.
func (n *Network) foremostRestricted(s, t int, start int32) (Journey, bool) {
	if s == t {
		return Journey{}, true
	}
	sc := getScratch()
	defer putScratch(sc)
	nv := n.g.N()
	arr := sc.arrival(nv)
	pred := sc.predecessors(nv)
	n.earliestArrivalsFrontier(s, start, arr, pred, sc)
	if arr[t] == Unreachable {
		return nil, false
	}
	var rev Journey
	for cur := int32(t); cur != int32(s); {
		pi := pred[cur]
		u := n.vteOwner(pi)
		rev = append(rev, Hop{
			From:  int(u),
			To:    int(cur),
			Edge:  int(n.vteEdge[pi]),
			Label: n.vteLabelAt(pi),
		})
		cur = u
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}
