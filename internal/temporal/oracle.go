package temporal

// Independent earliest-arrival oracles. No production entry point runs on
// them: the frontier kernel (engine.go) answers single-source queries and
// the word scan (msreach.go) answers all-pairs ones. They stay in the tree
// because the differential tests, and perfbench's query oracle, need
// implementations that share no code with those kernels.

// EarliestArrivalsLinearInto computes the same arrival vector as
// EarliestArrivalsInto with the original single-pass kernel: one scan of
// the label-sorted time-edge list applying "arr[u] < l ⇒ arr[v] ←
// min(arr[v], l)". Processing labels in non-decreasing order makes every
// arrival < l final when the scan reaches l, so the strict comparison
// applies exactly the increasing-label rule, and the scan may stop as soon
// as every vertex is reached (a set arrival can never improve). arr must
// have length N() and is overwritten; it returns the number of reached
// vertices counting s.
func (n *Network) EarliestArrivalsLinearInto(s int, arr []int32) int {
	n.ensureTimeEdges()
	for i := range arr {
		arr[i] = Unreachable
	}
	arr[s] = 0
	nv := len(arr)
	reached := 1
	directed := n.g.Directed()
	from, to := n.edgeEndpointArrays()
	for i, e := range n.teEdge {
		l := n.teLabel[i]
		u, v := from[e], to[e]
		if arr[u] < l && l < arr[v] {
			if arr[v] == Unreachable {
				reached++
			}
			arr[v] = l
		} else if !directed && arr[v] < l && l < arr[u] {
			if arr[u] == Unreachable {
				reached++
			}
			arr[u] = l
		}
		if reached == nv {
			break
		}
	}
	return reached
}

// earliestArrivalsFixpoint is an independent O(rounds·M) reference
// implementation used by tests: Bellman–Ford-style relaxation of all time
// edges (in arbitrary order) until no arrival time improves. It must agree
// with the production kernels on every network.
func (n *Network) earliestArrivalsFixpoint(s int) []int32 {
	nv := n.g.N()
	arr := make([]int32, nv)
	for i := range arr {
		arr[i] = Unreachable
	}
	arr[s] = 0
	directed := n.g.Directed()
	for {
		changed := false
		// Deliberately iterate edges in id order (not label order) so the
		// reference differs structurally from the production kernels.
		for e := 0; e < n.g.M(); e++ {
			u, v := n.g.Endpoints(e)
			for _, l := range n.EdgeLabels(e) {
				if arr[u] < l && l < arr[v] {
					arr[v] = l
					changed = true
				}
				if !directed && arr[v] < l && l < arr[u] {
					arr[u] = l
					changed = true
				}
			}
		}
		if !changed {
			return arr
		}
	}
}
