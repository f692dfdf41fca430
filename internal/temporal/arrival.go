package temporal

// Single-source earliest-arrival entry points, all on the frontier kernel
// (engine.go). The linear-scan and fixpoint oracles live in oracle.go.

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
// is the on-miss recompute path of the query index (internal/qindex).
func (n *Network) EarliestArrivalsFromInto(s int, start int32, arr []int32) int {
	if start < 1 {
		start = 1
	}
	sc := getScratch()
	reached := n.earliestArrivalsFrontier(s, start, arr, nil, sc)
	putScratch(sc)
	return reached
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
