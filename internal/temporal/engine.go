package temporal

// The frontier earliest-arrival kernel and its scratch layer.
//
// The kernel is Dial's algorithm over arrival times: a bucket queue with
// one bucket per distinct label settles vertices in non-decreasing
// arrival order. Arrival times are Dijkstra-compatible — a hop leaving u
// at label l requires l > arr[u], so arrivals strictly increase along a
// journey — hence a vertex popped at the bucket equal to its tentative
// arrival is final. Settling a vertex relaxes only its outgoing time
// edges with labels above its arrival (a galloping search into the
// per-vertex label-sorted CSR finds the suffix), so one source costs
// O(n + time edges incident to reached vertices), not O(M).
//
// Two refinements matter in the dense regimes the paper's diameter
// theorems live in:
//
//   - early termination: the bucket loop stops as soon as every vertex is
//     settled or the queue drains, so a clique source stops near the
//     temporal eccentricity instead of scanning labels up to the lifetime;
//   - a relaxation horizon: once every vertex is reached, no label ≥
//     max(arr) can improve anything, so suffix scans stop there. The
//     horizon is recomputed (an O(n) max) only after enough improvements
//     have accumulated to pay for it, keeping maintenance linear in the
//     work it saves.

import "sync"

// engineScratch holds every work array a frontier query needs. Queries
// draw one from enginePool, so steady-state callers allocate nothing.
type engineScratch struct {
	arr   []int32 // arrival scratch for entry points without a caller array
	pred  []int32 // predecessor time-edge index per vertex (journey traces)
	bh    []int32 // bucket heads: 1-based event index, 0 = empty bucket
	qv    []int32 // event → pushed vertex
	qnext []int32 // event → next event in the same bucket (1-based chain)
}

var enginePool = sync.Pool{New: func() any { return new(engineScratch) }}

func getScratch() *engineScratch  { return enginePool.Get().(*engineScratch) }
func putScratch(s *engineScratch) { enginePool.Put(s) }

// arrival returns the scratch arrival array resized to n.
func (sc *engineScratch) arrival(n int) []int32 {
	if cap(sc.arr) < n {
		sc.arr = make([]int32, n)
	}
	return sc.arr[:n]
}

// predecessors returns the scratch predecessor array resized to n.
func (sc *engineScratch) predecessors(n int) []int32 {
	if cap(sc.pred) < n {
		sc.pred = make([]int32, n)
	}
	return sc.pred[:n]
}

// fillUnreachable sets every entry of arr to Unreachable by doubling
// copies, so memmove's vector stores do the bulk of the O(n) reset that
// dominates queries reaching few vertices.
func fillUnreachable(arr []int32) {
	if len(arr) == 0 {
		return
	}
	arr[0] = Unreachable
	for j := 1; j < len(arr); j *= 2 {
		copy(arr[j:], arr[:j])
	}
}

// buckets returns the bucket-head array able to index label ranks 0..d-1,
// zeroed (all buckets empty). Sizing by distinct-label count keeps the
// scratch O(M) however large the lifetime is; growing it with headroom,
// as growI32 does, keeps a run of labelings with ever more distinct labels
// from reallocating it at every new maximum.
func (sc *engineScratch) buckets(d int) []int32 {
	sc.bh = growI32(sc.bh, d)
	clear(sc.bh)
	return sc.bh
}

// earliestArrivalsFrontier computes δ(s,·) restricted to journeys whose
// first hop departs no earlier than start (start = 1 is the unrestricted
// query). arr must have length N() and is overwritten; pred, when non-nil,
// must have length N() and receives for each reached vertex the index of
// the vertex-CSR time edge that first achieved its arrival (-1 elsewhere).
// It returns the number of reached vertices counting s.
//
// The bucket queue is indexed by label rank (position in the sorted
// distinct-label array), so every per-query cost — bucket clearing,
// bucket iteration, scratch size — is O(distinct labels) ≤ O(M) and
// independent of the lifetime.
func (n *Network) earliestArrivalsFrontier(s int, start int32, arr, pred []int32, sc *engineScratch) int {
	n.ensureVertexTimeEdges()
	fillUnreachable(arr)
	for i := range pred {
		pred[i] = -1
	}
	nv := len(arr)
	t0 := start - 1
	arr[s] = t0
	reached := 1
	lab := n.distinct
	d := len(lab)
	bh := sc.buckets(d)
	qv, qnext := sc.qv[:0], sc.qnext[:0]
	pending := 0 // queued events not yet popped; 0 means the queue drained

	vo, vp := n.vteOff, n.vtePacked
	// horizonRank is an exclusive upper bound on label ranks worth
	// relaxing: once every vertex is reached, any label ≥ max(arr) fails
	// l < arr[w] for every w. minImproved gates the O(n) recomputation.
	horizonRank := d
	improved, minImproved := 0, 1
	settled := 0

	// settleScan relaxes v's outgoing time edges with rank ≥ floorRank
	// (and below the horizon), pushing improvements into their rank
	// bucket.
	settleScan := func(v int32, floorRank int) {
		settled++
		base := vo[v]
		seg := vp[base:vo[v+1]]
		// First entry at or above floorRank, by galloping then binary
		// search: entries sort by (rank, to), so the cut is at packed ≥
		// floorRank<<32. Arrival times are usually small, so the gallop
		// ends after a step or two.
		floor := uint64(floorRank) << 32
		lo, hi := 0, len(seg)
		if lo < hi && seg[lo] < floor {
			step := 1
			for lo+step < hi && seg[lo+step] < floor {
				lo += step
				step <<= 1
			}
			if lo+step < hi {
				hi = lo + step
			}
			lo++
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if seg[mid] < floor {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		cap64 := uint64(horizonRank) << 32
		for k := lo; k < len(seg); k++ {
			p := seg[k]
			if p >= cap64 {
				break
			}
			rk := int32(p >> 32)
			l := lab[rk]
			w := int32(uint32(p))
			if l < arr[w] {
				if arr[w] == Unreachable {
					reached++
				}
				arr[w] = l
				if pred != nil {
					pred[w] = base + int32(k)
				}
				qv = append(qv, w)
				qnext = append(qnext, bh[rk])
				bh[rk] = int32(len(qv))
				pending++
				improved++
			}
		}
	}

	settleScan(int32(s), n.labelRankAbove(t0))
	for r := 0; r < d && r < horizonRank; r++ {
		t := lab[r]
		for it := bh[r]; it != 0; {
			v := qv[it-1]
			it = qnext[it-1]
			pending--
			if arr[v] != t {
				continue // stale: v was improved into an earlier bucket
			}
			settleScan(v, r+1)
		}
		if settled == nv || pending == 0 {
			break
		}
		if reached == nv && improved >= minImproved {
			h := int32(0)
			for _, a := range arr {
				if a > h {
					h = a
				}
			}
			horizonRank = n.labelRankAbove(h - 1)
			improved = 0
			if minImproved = nv / 32; minImproved < 16 {
				minImproved = 16
			}
		}
	}
	arr[s] = 0
	sc.qv, sc.qnext = qv, qnext // keep grown capacity for the next query
	return reached
}
