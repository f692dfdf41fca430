package temporal

// The bit-parallel multi-source kernels (MS-BFS style): up to 64 sources
// share one pass, each vertex carrying one uint64 of source bits. Two word
// kernels cooperate:
//
//   - wordScan answers "which sources have a journey to v" with one scan
//     of the label-sorted time-edge list. Within one label group the
//     strictly-increasing-label rule forbids chaining, so new arrivals are
//     staged in a pending word and merged only at group boundaries. The
//     bits staged in a group are exactly the (source, vertex) pairs whose
//     earliest arrival is that group's label, so a per-group hook turns
//     the reachability pass into an arrival-time pass: ArrivalGroups hands
//     them to its caller, ArrivalRowsBatch stamps them into rows, the
//     temporal diameter folds them into counts. Staging is unconditional:
//     every time edge ORs its new bits into the pending word (zero bits
//     when there are none) and writes its head to the dirty list, whose
//     length then advances by arithmetic only when the pending word turns
//     non-zero. Whether a relaxation adds bits depends on the random
//     labels, so a branch on it would mispredict; the store costs less.
//   - staticReachWords answers "which sources have a static path to v"
//     with a chaotic-order worklist closure: each source bit crosses each
//     arc at most once, so a batch costs at most what 64 separate BFS
//     passes would, and typically far less.
//
// SatisfiesTreachSerial, ReachableSets, ArrivalGroups, ArrivalRowsBatch and
// Diameter run on batches of these words: ⌈n/64⌉ passes over the time
// edges instead of n.

import (
	"sync"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// batchSize is the number of sources one word pass answers.
const batchSize = 64

// reachScratch holds the per-batch work arrays of the word kernels.
type reachScratch struct {
	cur   []uint64 // temporal: bits arrived strictly before the current label
	pend  []uint64 // temporal: bits arriving at the current label
	stat  []uint64 // static closure bits
	sPend []uint64 // static: bits not yet propagated
	dirty []int32  // temporal: vertices with pending bits, then one spare slot
	front []int32  // static: current BFS frontier
	next  []int32  // static: next BFS frontier
	srcs  []int32  // batch source buffer
}

var reachPool = sync.Pool{New: func() any { return new(reachScratch) }}

func (sc *reachScratch) ensure(n int) {
	if cap(sc.cur) < n {
		sc.cur = make([]uint64, n)
		sc.pend = make([]uint64, n)
		sc.stat = make([]uint64, n)
		sc.sPend = make([]uint64, n)
	}
	// A vertex turns dirty at most once per label group, so a group lists
	// at most n vertices, and wordScan writes each candidate one slot past
	// the listed ones before deciding to keep it: n+1 slots always do.
	if cap(sc.dirty) < n+1 {
		sc.dirty = make([]int32, n+1)
	}
}

// nonZero returns 1 when w != 0 and 0 otherwise, without a branch.
func nonZero(w uint64) int { return int((w | -w) >> 63) }

// fullMask returns the word with one bit per batch source.
func fullMask(k int) uint64 { return ^uint64(0) >> (64 - uint(k)) }

// groupFunc observes one label group of a word scan: the vertices that
// received bits at that label, and the pending words holding exactly those
// bits (pend[v] has bit j set when source j's earliest arrival at v is
// label).
type groupFunc func(label int32, dirty []int32, pend []uint64)

// wordScan is the one bit-parallel temporal pass behind every 64-source
// kernel: it fills sc.cur[v] with a bit per source whose journeys reach v.
// Within one label group the strictly-increasing-label rule forbids
// chaining, so new arrivals are staged in a pending word and merged only
// at group boundaries; just before each merge, onGroup (when non-nil) sees
// the staged bits. The pass stops early once every vertex holds every
// source bit — on dense cliques that happens after a small label prefix.
// Each group is staged by an inner loop that branches on nothing but the
// group's end, one loop for arcs and one for edges, which relax both ways.
// A single loop testing directedness at every time edge scanned directed
// cliques 1.2× slower (GOMAXPROCS=1, 2-vCPU Xeon, fresh labelings per
// round), and undirected graphs no faster.
// sources must hold between 1 and 64 vertices.
func (n *Network) wordScan(sources []int32, sc *reachScratch, onGroup groupFunc) {
	n.ensureTimeEdges()
	nv := n.g.N()
	sc.ensure(nv)
	cur, pend := sc.cur[:nv], sc.pend[:nv]
	clear(cur)
	clear(pend)
	full := fullMask(len(sources))
	for j, s := range sources {
		cur[s] |= 1 << uint(j)
	}
	left := nv // vertices still missing some source bit
	for _, w := range cur {
		if w == full {
			left--
		}
	}
	if left == 0 {
		return
	}
	from, to := n.g.FromArray(), n.g.ToArray()
	directed := n.g.Directed()
	dirty := sc.dirty[:nv+1]
	te := n.teEdge
	tl := n.teLabel[:len(te)]
	for i := 0; i < len(te); {
		// Stage label l's group, the time edges from i to the next label:
		// its arrivals become usable for departures once it is flushed.
		l := tl[i]
		nd := 0 // dirty[:nd] lists the vertices with pending bits
		if directed {
			for ; i < len(te) && tl[i] == l; i++ {
				e := te[i]
				u, v := from[e], to[e]
				pv := pend[v]
				w := pv | cur[u]&^cur[v]
				pend[v] = w
				dirty[nd] = v
				nd += nonZero(w) - nonZero(pv) // 1 exactly when pend[v] turns non-zero
			}
		} else {
			for ; i < len(te) && tl[i] == l; i++ {
				e := te[i]
				u, v := from[e], to[e]
				cu, cv := cur[u], cur[v]
				pv, pu := pend[v], pend[u]
				wv, wu := pv|cu&^cv, pu|cv&^cu
				pend[v] = wv
				dirty[nd] = v
				nd += nonZero(wv) - nonZero(pv)
				pend[u] = wu
				dirty[nd] = u
				nd += nonZero(wu) - nonZero(pu)
			}
		}
		if nd > 0 {
			if left -= flushGroup(l, dirty[:nd], cur, pend, full, onGroup); left == 0 {
				break
			}
		}
	}
}

// flushGroup hands the bits staged at label to onGroup, then merges them
// into cur. It returns how many vertices became full.
func flushGroup(label int32, dirty []int32, cur, pend []uint64, full uint64, onGroup groupFunc) (filled int) {
	if onGroup != nil {
		onGroup(label, dirty, pend)
	}
	for _, v := range dirty {
		// Staged bits are disjoint from cur[v], so v was not full before.
		w := cur[v] | pend[v]
		if w == full {
			filled++
		}
		cur[v] = w
		pend[v] = 0
	}
	return filled
}

// staticReachWords fills sc.stat[v] with a bit per source that has a
// static path to v: level-synchronized MS-BFS, so each vertex propagates
// one merged word per wave instead of dribbling bits one arrival at a
// time, and the pass stops as soon as every vertex holds every source bit
// (one wave on a clique).
func staticReachWords(g *graph.Graph, sources []int32, sc *reachScratch) {
	nv := g.N()
	sc.ensure(nv)
	stat, pend := sc.stat[:nv], sc.sPend[:nv]
	clear(stat)
	clear(pend)
	full := fullMask(len(sources))
	frontier, next := sc.front[:0], sc.next[:0]
	for j, s := range sources {
		if pend[s] == 0 {
			frontier = append(frontier, s)
		}
		b := uint64(1) << uint(j)
		stat[s] |= b
		pend[s] |= b
	}
	fullCount := 0
	for _, v := range frontier {
		if stat[v] == full {
			fullCount++
		}
	}
	for len(frontier) > 0 && fullCount < nv {
		next = next[:0]
		for _, u := range frontier {
			bitsU := pend[u]
			pend[u] = 0
			for _, v := range g.OutNeighbors(int(u)) {
				if add := bitsU &^ stat[v]; add != 0 {
					w := stat[v] | add
					stat[v] = w
					if w == full {
						fullCount++
					}
					if pend[v] == 0 {
						next = append(next, v)
					}
					pend[v] |= add
				}
			}
		}
		frontier, next = next, frontier
	}
	sc.front, sc.next = frontier[:0], next[:0]
}

// batch fills sc.srcs with the consecutive sources [lo, hi).
func (sc *reachScratch) batch(lo, hi int) []int32 {
	sc.srcs = sc.srcs[:0]
	for s := lo; s < hi; s++ {
		sc.srcs = append(sc.srcs, int32(s))
	}
	return sc.srcs
}

// pick fills sc.srcs with the batch of up to 64 sources starting at
// sources[lo].
func (sc *reachScratch) pick(sources []int, lo int) []int32 {
	sc.srcs = sc.srcs[:0]
	for _, s := range sources[lo:min(lo+batchSize, len(sources))] {
		sc.srcs = append(sc.srcs, int32(s))
	}
	return sc.srcs
}

// treachViolated runs both word kernels for one source batch and reports
// whether some (source, target) pair has a static path but no journey.
func (n *Network) treachViolated(sources []int32, sc *reachScratch) bool {
	n.wordScan(sources, sc, nil)
	staticReachWords(n.g, sources, sc)
	for v := range n.g.N() {
		if sc.stat[v]&^sc.cur[v] != 0 {
			return true
		}
	}
	return false
}

// ReachableSets returns, for each source, the set of vertices a journey
// from it reaches (including the source), computed 64 sources per pass
// with the bit-parallel kernel. BenchmarkKernelMultiSourceReach measures
// it, and engine_test.go checks it against the scalar rows.
func ReachableSets(n *Network, sources []int) []*bitset.Set {
	nv := n.g.N()
	out := make([]*bitset.Set, len(sources))
	sc := reachPool.Get().(*reachScratch)
	defer reachPool.Put(sc)
	for lo := 0; lo < len(sources); lo += batchSize {
		srcs := sc.pick(sources, lo)
		n.wordScan(srcs, sc, nil)
		for j := range srcs {
			set := bitset.New(nv)
			bit := uint64(1) << uint(j)
			for v := 0; v < nv; v++ {
				if sc.cur[v]&bit != 0 {
					set.Add(v)
				}
			}
			out[lo+j] = set
		}
	}
	return out
}
