package temporal

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Unreachable is the arrival-time sentinel for vertices that no journey
// reaches. It compares greater than any valid label.
const Unreachable int32 = 1<<31 - 1

// Labeling is a CSR label assignment: edge e carries
// Labels[Off[e]:Off[e+1]]. Labels need not be pre-sorted per edge; network
// construction sorts them. Assigners (package assign) produce Labelings.
type Labeling struct {
	Off    []int32
	Labels []int32
}

// Reset prepares lab to be refilled for a graph of m edges, reusing its
// backing arrays: Off is resized to m+1 with Off[0] = 0 (the remaining
// offsets are unspecified until the caller fills them) and Labels is
// truncated to length zero so appends reuse its capacity. This is the
// buffer discipline avail.Model's Resample implementations build on —
// after the first few draws a resample loop allocates nothing.
func (lab *Labeling) Reset(m int) {
	if cap(lab.Off) < m+1 {
		lab.Off = make([]int32, m+1)
	} else {
		lab.Off = lab.Off[:m+1]
	}
	lab.Off[0] = 0
	lab.Labels = lab.Labels[:0]
}

// LabelingFromSets converts an explicit per-edge label-set slice into CSR
// form; convenient for tests and examples.
func LabelingFromSets(sets [][]int) Labeling {
	off := make([]int32, len(sets)+1)
	total := 0
	for i, s := range sets {
		total += len(s)
		off[i+1] = int32(total)
	}
	labels := make([]int32, 0, total)
	for _, s := range sets {
		for _, l := range s {
			labels = append(labels, int32(l))
		}
	}
	return Labeling{Off: off, Labels: labels}
}

// Network is an ephemeral temporal network: a static graph plus a label
// assignment with all labels in {1, …, Lifetime()}. The lifetime is
// immutable; the labels can be replaced wholesale through Relabel, which
// rebuilds every index in place — the batched Monte-Carlo path that holds
// the substrate fixed and resamples availability per trial. Networks whose
// graph is exclusively owned (the incremental mobility scenarios) can
// additionally replace their edge list per trial through RelabelEdges,
// which rebuilds the graph's CSR in place under the same lazy index
// machinery; shared-substrate networks must never do this.
type Network struct {
	g        *graph.Graph
	lifetime int32

	// Per-edge sorted labels in CSR form.
	off    []int32
	labels []int32

	// Time edges bucket-sorted by label: time edge i is (edge teEdge[i],
	// label teLabel[i]), with teLabel non-decreasing. teEnds[i] packs the
	// endpoints of edge teEdge[i] as from | to<<32, so the point scan reads
	// two sequential columns instead of gathering through the edge id; it
	// is filled lazily (below).
	teEdge  []int32
	teLabel []int32
	teEnds  []uint64

	// distinct holds the sorted distinct labels in use. The frontier
	// kernel's bucket queue is indexed by rank in this array, so its time
	// and scratch memory scale with the number of distinct labels (≤ M)
	// rather than with the lifetime, which callers may set enormous.
	distinct []int32

	// Per-vertex CSR of outgoing time edges, sorted by label within each
	// vertex: entry i in [vteOff[u], vteOff[u+1]) says u can leave to
	// vertex uint32(vtePacked[i]) at time distinct[vtePacked[i]>>32],
	// over edge vteEdge[i]. Undirected edges appear once per endpoint.
	// Packing (label rank, to) into one word keeps the frontier kernel's
	// suffix scans on a single sequential stream; vteEdge is touched only
	// by journey reconstruction.
	vteOff    []int32
	vtePacked []uint64
	vteEdge   []int32

	// regular reports that every edge carries the same number of labels;
	// the validation pass over the offsets sets it, and buildTimeEdges
	// picks its scatter loop by it.
	regular bool

	// Relabel scratch, retained so steady-state relabeling allocates
	// nothing: teCounts is the counting-sort histogram, vtePos the
	// per-vertex fill cursor. histValid marks teCounts as holding the
	// current labels' histogram (Relabel computes it while copying, so the
	// lazy time-edge build can skip its counting pass).
	teCounts  []int32
	vtePos    []int32
	histValid bool

	// Lazy index state. Relabel only copies the labels; the per-edge label
	// sort and the two derived indexes are redone on first use, so a trial
	// that only runs the bit-parallel kernel (the time-edge list) never
	// pays for the per-vertex CSR or the per-edge sort, and vice versa.
	// New builds the per-edge sort and the time-edge list and leaves the
	// per-vertex CSR to the first frontier query the same way.
	// (The derived indexes do not depend on per-edge label order: the
	// counting sort places each (edge, label) pair by its label value, and
	// equal pairs are interchangeable, so sortedness only matters to the
	// per-edge query surface — EdgeLabels, LabelIn.) The clean flags use
	// double-checked locking around idxMu, so concurrent queries on a
	// relabeled network remain safe — whichever caller arrives first
	// builds, everyone else proceeds after the atomic acquire. The endpoint
	// column (endsClean) is built the same way by the first point scan on
	// a labeling, so a served network fills it once and a per-trial
	// labeling that is never point-queried never fills it.
	idxMu     sync.Mutex
	teClean   atomic.Bool
	vteClean  atomic.Bool
	labSorted atomic.Bool
	endsClean atomic.Bool
}

// validateLabelingShape checks the CSR offset invariants New and Relabel
// both require; the label-range check is separate because Relabel fuses it
// with its histogram pass. The same pass over the offsets reports whether
// the labeling is regular, every edge carrying as many labels as edge 0.
func validateLabelingShape(m int, lab Labeling) (regular bool, err error) {
	if len(lab.Off) != m+1 {
		return false, fmt.Errorf("temporal: labeling has %d offsets, want %d", len(lab.Off), m+1)
	}
	if lab.Off[0] != 0 || int(lab.Off[m]) != len(lab.Labels) {
		return false, fmt.Errorf("temporal: labeling offsets do not cover %d labels", len(lab.Labels))
	}
	var k, differ int32
	if m > 0 {
		k = lab.Off[1]
	}
	for e := 0; e < m; e++ {
		c := lab.Off[e+1] - lab.Off[e]
		if c < 0 {
			return false, fmt.Errorf("temporal: labeling offsets decrease at edge %d", e)
		}
		differ |= c ^ k
	}
	return differ == 0, nil
}

// validateLabeling is the full check: shape plus label range.
func validateLabeling(m, lifetime int, lab Labeling) (regular bool, err error) {
	if regular, err = validateLabelingShape(m, lab); err != nil {
		return false, err
	}
	for _, l := range lab.Labels {
		if l < 1 || int(l) > lifetime {
			return false, fmt.Errorf("temporal: label %d outside [1,%d]", l, lifetime)
		}
	}
	return regular, nil
}

// growI32 returns s resized to length n, reusing its backing array when
// the capacity allows and otherwise growing it with headroom, as append
// does, so a run of ever larger labelings reallocates only when a size
// outgrows the capacity; contents are unspecified.
func growI32(s []int32, n int) []int32 {
	return slices.Grow(s[:0], n)[:n]
}

// New assembles a temporal network from a graph and a labeling. It verifies
// the CSR shape and label range, sorts each edge's labels, and bucket-sorts
// the global time-edge list. The per-vertex index is left for the first
// frontier query to build (ensureVertexTimeEdges), as after Relabel: the
// word-scan and point kernels never read it.
func New(g *graph.Graph, lifetime int, lab Labeling) (*Network, error) {
	if lifetime < 1 {
		return nil, fmt.Errorf("temporal: lifetime %d < 1", lifetime)
	}
	regular, err := validateLabeling(g.M(), lifetime, lab)
	if err != nil {
		return nil, err
	}
	n := &Network{g: g, lifetime: int32(lifetime), off: lab.Off, labels: lab.Labels, regular: regular}
	n.sortPerEdge()
	n.buildTimeEdges()
	n.labSorted.Store(true)
	n.teClean.Store(true)
	return n, nil
}

// Relabel replaces the network's label assignment in place — the batched
// trial engine's hot path (sim.BatchRunner). The labeling is copied (its
// histogram is computed during the copy) and each edge's labels are
// re-sorted — only per-edge runs are ever sorted; the global order comes
// from a counting sort, the per-vertex CSR from a label-ordered scan. The
// two derived indexes are then rebuilt lazily over the existing buffers on
// first kernel use: a trial that only runs the bit-parallel reachability
// kernel never pays for the per-vertex CSR, one that only runs the
// frontier kernel pays for it exactly once. Every kernel reads only those
// indexes, so queries after Relabel are bit-identical to queries on
// MustNew(Graph(), Lifetime(), lab) — pinned by the differential tests —
// while a steady-state Relabel (a labeling no larger than the biggest one
// seen so far) allocates nothing.
//
// lab is not retained: callers may overwrite its backing arrays
// immediately, which is what avail.Model's Resample implementations do
// between trials. Validation matches New and runs before any mutation, so a failed
// Relabel leaves the network unchanged. The substrate graph and the
// lifetime are fixed at construction; only the labels move. Slices
// previously returned by EdgeLabels are invalidated; networks from
// Reverse are unaffected (they share no mutable state).
//
// Relabel itself requires exclusive access (no concurrent queries), like
// any write; afterwards concurrent queries are safe — the lazy index
// rebuild is guarded by double-checked locking.
func (n *Network) Relabel(lab Labeling) error {
	regular, err := n.checkLabeling(n.g.M(), lab)
	if err != nil {
		return err
	}
	n.storeLabeling(lab, regular)
	return nil
}

// RelabelEdges is Relabel for a network whose edge set changes too: the
// support graph's edge list becomes (from[i], to[i]), edge i carrying
// lab's run i, and the labels are replaced as by Relabel. The graph's CSR
// is rebuilt in place over its buffers (graph.ReplaceEdges), and every
// temporal index is left to the lazy rebuild Relabel uses, so queries
// afterwards are bit-identical to queries on a network freshly built from
// the same edge list and labeling, edge identifiers included — pinned by
// the differential and fuzz tests — and a steady-state call allocates
// nothing. The lists and lab are not retained.
//
// Validation runs before any mutation: the labeling as Relabel checks it,
// for len(from) edges, then lengths, ranges and self-loops of the edge
// list inside ReplaceEdges. A failed call leaves network and graph
// unchanged.
//
// CAUTION — unlike Relabel, this mutates *n.Graph() itself. The graph must
// be exclusively owned by this network and this caller (sim.BatchRunner
// gives each scenario worker its own); anything derived from the old
// topology (StaticReach, cached adjacency, slices from FromArray/ToArray)
// is invalidated even though the pointer is unchanged. Exclusive access is
// required during the call, exactly as for Relabel.
func (n *Network) RelabelEdges(from, to []int32, lab Labeling) error {
	regular, err := n.checkLabeling(len(from), lab)
	if err != nil {
		return err
	}
	if err := n.g.ReplaceEdges(from, to); err != nil {
		return err
	}
	n.storeLabeling(lab, regular)
	return nil
}

// checkLabeling validates lab for m edges, shape and label range, the
// range check fused with the time-edge build's counting pass. It writes
// only scratch, so the network is untouched if lab is bad; the lazy
// time-edge build later starts from this histogram and skips its own.
func (n *Network) checkLabeling(m int, lab Labeling) (regular bool, err error) {
	if regular, err = validateLabelingShape(m, lab); err != nil {
		return false, err
	}
	counts := growI32(n.teCounts, int(n.lifetime)+2)
	clear(counts)
	n.teCounts = counts
	n.histValid = false
	for _, l := range lab.Labels {
		if l < 1 || l > n.lifetime {
			return false, fmt.Errorf("temporal: label %d outside [1,%d]", l, n.lifetime)
		}
		counts[l+1]++
	}
	return regular, nil
}

// storeLabeling copies a labeling checkLabeling accepted into the
// network and marks every index stale.
func (n *Network) storeLabeling(lab Labeling, regular bool) {
	n.histValid = true
	n.regular = regular
	n.off = growI32(n.off, len(lab.Off))
	copy(n.off, lab.Off)
	n.labels = growI32(n.labels, len(lab.Labels))
	copy(n.labels, lab.Labels)
	n.invalidateIndexes()
}

// invalidateIndexes marks every lazy index stale, the endpoint column
// included, after Relabel or RelabelEdges replaced the labels.
func (n *Network) invalidateIndexes() {
	n.labSorted.Store(false)
	n.teClean.Store(false)
	n.vteClean.Store(false)
	n.endsClean.Store(false)
}

// ensureSortedLabels re-sorts each edge's label run if a Relabel left them
// unsorted; only the per-edge query surface needs this (the derived
// indexes are order-independent), so relabeled trials that never ask
// per-edge questions never pay for it.
func (n *Network) ensureSortedLabels() {
	if n.labSorted.Load() {
		return
	}
	n.idxMu.Lock()
	if !n.labSorted.Load() {
		n.sortPerEdge()
		n.labSorted.Store(true)
	}
	n.idxMu.Unlock()
}

// ensureTimeEdges rebuilds the label-sorted global time-edge list if a
// Relabel invalidated it. Double-checked: the atomic fast path costs one
// load when clean; dirty concurrent callers serialize on idxMu and the
// winner builds.
func (n *Network) ensureTimeEdges() {
	if n.teClean.Load() {
		return
	}
	n.idxMu.Lock()
	if !n.teClean.Load() {
		n.buildTimeEdges()
		n.teClean.Store(true)
	}
	n.idxMu.Unlock()
}

// ensureVertexTimeEdges rebuilds the per-vertex CSR (and the distinct-label
// array) if a Relabel invalidated it; the build scans the global list, so
// it brings that up to date first.
func (n *Network) ensureVertexTimeEdges() {
	if n.vteClean.Load() {
		return
	}
	n.idxMu.Lock()
	if !n.vteClean.Load() {
		if !n.teClean.Load() {
			n.buildTimeEdges()
			n.teClean.Store(true)
		}
		n.buildVertexTimeEdges()
		n.vteClean.Store(true)
	}
	n.idxMu.Unlock()
}

// ensureTimeEdgeEnds fills the endpoint column teEnds if New or a Relabel
// left it stale; the fill reads the global list, so it brings that up to
// date first.
func (n *Network) ensureTimeEdgeEnds() {
	if n.endsClean.Load() {
		return
	}
	n.idxMu.Lock()
	if !n.endsClean.Load() {
		if !n.teClean.Load() {
			n.buildTimeEdges()
			n.teClean.Store(true)
		}
		n.buildTimeEdgeEnds()
		n.endsClean.Store(true)
	}
	n.idxMu.Unlock()
}

// MustNew is New for callers whose labeling is correct by construction
// (generators, tests); it panics on error.
func MustNew(g *graph.Graph, lifetime int, lab Labeling) *Network {
	n, err := New(g, lifetime, lab)
	if err != nil {
		panic(err)
	}
	return n
}

func (n *Network) sortPerEdge() {
	obsBuildLabelSort.Inc()
	for e := 0; e < n.g.M(); e++ {
		seg := n.labels[n.off[e]:n.off[e+1]]
		if len(seg) > 1 && !slices.IsSorted(seg) {
			slices.Sort(seg)
		}
	}
}

// buildTimeEdges counting-sorts all (edge, label) pairs by label. All
// output and scratch arrays are reused across Relabel calls; a histogram
// Relabel computed while copying the labels (histValid) is consumed
// instead of re-counted. The label column is filled by a sequential
// run-length pass after the edge scatter — same contents, one random write
// stream instead of two.
//
// The scatter visits labels in storage order and needs each label's edge
// id. A regular labeling (every edge carries k labels: the i.i.d. laws
// with r labels per edge, windows) walks edge by edge: the inner loop's
// constant trip count predicts perfectly, so there is no misprediction
// to remove. An irregular one (Markov, p(t), geometric) would mispredict
// that loop's exit on most edges, so it marks where each edge starts and
// runs one flat loop over the labels, whose edge ids are a running sum of
// those marks: no branch depends on a label count. The marks live in the
// label column, which the run-length pass overwrites afterwards.
func (n *Network) buildTimeEdges() {
	obsBuildTimeEdges.Inc()
	total := len(n.labels)
	counts := growI32(n.teCounts, int(n.lifetime)+2)
	n.teCounts = counts
	if !n.histValid {
		clear(counts)
		for _, l := range n.labels {
			counts[l+1]++
		}
	}
	n.histValid = false // the prefix/scatter below consumes the histogram
	for i := int32(1); i < n.lifetime+2; i++ {
		counts[i] += counts[i-1]
	}
	n.teEdge = growI32(n.teEdge, total)
	if m := n.g.M(); n.regular {
		n.teLabel = growI32(n.teLabel, total)
		for e := 0; e < m; e++ {
			for i := n.off[e]; i < n.off[e+1]; i++ {
				l := n.labels[i]
				p := counts[l]
				counts[l] = p + 1
				n.teEdge[p] = int32(e)
			}
		}
	} else {
		// starts[i] counts the edges e ≥ 1 whose labels begin at index i
		// (an empty edge shares its index with the next edge; off[m] and
		// trailing empty edges mark the spare slot at index total), so the
		// label at index i belongs to edge starts[0] + … + starts[i].
		starts := growI32(n.teLabel, total+1)
		clear(starts)
		for _, o := range n.off[1:] {
			starts[o]++
		}
		e := int32(0)
		te := n.teEdge
		for i, l := range n.labels {
			e += starts[i]
			p := counts[l]
			counts[l] = p + 1
			te[p] = e
		}
		n.teLabel = starts[:total]
	}
	// After the scatter counts[l] is the end of label l's run (and
	// counts[0] is still 0), so the label column falls out sequentially.
	prev := int32(0)
	for l := int32(1); l <= n.lifetime; l++ {
		end := counts[l]
		for p := prev; p < end; p++ {
			n.teLabel[p] = l
		}
		prev = end
	}
}

// buildTimeEdgeEnds fills the endpoint column from the label-sorted list
// and the graph's edge arrays, over the column's previous buffer.
func (n *Network) buildTimeEdgeEnds() {
	obsBuildEnds.Inc()
	from, to := n.g.FromArray(), n.g.ToArray()
	ends := n.teEnds
	if cap(ends) < len(n.teEdge) {
		ends = make([]uint64, len(n.teEdge))
	} else {
		ends = ends[:len(n.teEdge)]
	}
	for i, e := range n.teEdge {
		ends[i] = uint64(uint32(from[e])) | uint64(uint32(to[e]))<<32
	}
	n.teEnds = ends
}

// buildVertexTimeEdges builds the per-vertex time-edge CSR. Filling it by a
// scan of the already label-sorted global list leaves every vertex's
// segment sorted by label with no further sorting. All output and scratch
// arrays are reused across Relabel calls.
func (n *Network) buildVertexTimeEdges() {
	obsBuildVertex.Inc()
	nv := n.g.N()
	directed := n.g.Directed()
	size := len(n.labels)
	if !directed {
		size *= 2
	}
	from, to := n.g.FromArray(), n.g.ToArray()
	off := growI32(n.vteOff, nv+1)
	clear(off)
	for e := 0; e < n.g.M(); e++ {
		c := n.off[e+1] - n.off[e]
		off[from[e]+1] += c
		if !directed {
			off[to[e]+1] += c
		}
	}
	for i := 0; i < nv; i++ {
		off[i+1] += off[i]
	}
	packed := slices.Grow(n.vtePacked[:0], size)[:size]
	eid := growI32(n.vteEdge, size)
	pos := growI32(n.vtePos, nv)
	n.vtePos = pos
	copy(pos, off[:nv])
	// The global list is label-sorted, so distinct labels and their ranks
	// fall out of one scan.
	distinct := n.distinct[:0]
	rank := uint64(0)
	for i, e := range n.teEdge {
		l := n.teLabel[i]
		if len(distinct) == 0 || l != distinct[len(distinct)-1] {
			distinct = append(distinct, l)
			rank = uint64(len(distinct) - 1)
		}
		u, v := from[e], to[e]
		p := pos[u]
		packed[p], eid[p] = rank<<32|uint64(uint32(v)), e
		pos[u] = p + 1
		if !directed {
			p = pos[v]
			packed[p], eid[p] = rank<<32|uint64(uint32(u)), e
			pos[v] = p + 1
		}
	}
	n.distinct = distinct
	n.vteOff, n.vtePacked, n.vteEdge = off, packed, eid
}

// labelRankAbove returns the rank of the smallest distinct label > t, or
// len(distinct) when none exists.
func (n *Network) labelRankAbove(t int32) int {
	r, _ := slices.BinarySearch(n.distinct, t+1)
	return r
}

// vteLabelAt unpacks one vertex-CSR time edge's label.
func (n *Network) vteLabelAt(idx int32) int32 { return n.distinct[n.vtePacked[idx]>>32] }

// vteOwner returns the vertex whose outgoing time-edge segment contains
// index idx — the tail vertex of that time edge. Journey reconstruction
// uses it to walk predecessor indexes back to the source.
func (n *Network) vteOwner(idx int32) int32 {
	lo, hi := int32(0), int32(n.g.N())
	for lo+1 < hi {
		mid := (lo + hi) >> 1
		if n.vteOff[mid] <= idx {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Graph returns the underlying static graph.
func (n *Network) Graph() *graph.Graph { return n.g }

// Lifetime returns the maximum admissible label a.
func (n *Network) Lifetime() int { return int(n.lifetime) }

// LabelCount returns the total number of labels M (= number of time edges).
func (n *Network) LabelCount() int { return len(n.labels) }

// EdgeLabels returns edge e's labels sorted ascending. The slice is shared
// and must not be modified; a Relabel invalidates it.
func (n *Network) EdgeLabels(e int) []int32 {
	n.ensureSortedLabels()
	return n.labels[n.off[e]:n.off[e+1]]
}

// HasLabelIn reports whether edge e carries a label in the half-open
// interval (lo, hi], the window form used throughout the Expansion Process.
func (n *Network) HasLabelIn(e int, lo, hi int32) bool {
	_, ok := n.LabelIn(e, lo, hi)
	return ok
}

// LabelIn returns the smallest label of edge e inside (lo, hi] and whether
// one exists.
func (n *Network) LabelIn(e int, lo, hi int32) (int32, bool) {
	seg := n.EdgeLabels(e)
	i := sort.Search(len(seg), func(i int) bool { return seg[i] > lo })
	if i < len(seg) && seg[i] <= hi {
		return seg[i], true
	}
	return 0, false
}

// TimeEdges calls fn(edge, u, v, label) for every time edge in
// non-decreasing label order. For undirected graphs the (u,v) orientation
// is storage order; callers must treat the hop as bidirectional.
func (n *Network) TimeEdges(fn func(e, u, v int, l int32)) {
	n.ensureTimeEdges()
	for i := range n.teEdge {
		e := int(n.teEdge[i])
		u, v := n.g.Endpoints(e)
		fn(e, u, v, n.teLabel[i])
	}
}

// Reverse returns the time-reversed dual network: every arc is reversed
// (undirected graphs are shared as-is) and every label l becomes
// lifetime+1-l. A (u,v)-journey with labels l₁<…<l_k corresponds exactly
// to a (v,u)-journey with labels a+1-l_k<…<a+1-l₁ in the dual, which turns
// latest-departure questions into earliest-arrival ones. It is the oracle
// behind TestQuickLatestDepartureDuality and TestQuickReverseDuality.
func (n *Network) Reverse() *Network {
	// Snapshot under the sorted-labels guard: without it a concurrent
	// per-edge query could be lazily sorting n.labels in place while the
	// copy loop below reads them.
	n.ensureSortedLabels()
	rg := n.g.Reverse()
	lab := Labeling{Off: slices.Clone(n.off), Labels: make([]int32, len(n.labels))}
	for i, l := range n.labels {
		lab.Labels[i] = n.lifetime + 1 - l
	}
	// Edge ids are preserved by graph.Reverse, so the CSR offsets carry
	// over unchanged (cloned, so a later Relabel of either network cannot
	// reach into the other); MustNew re-sorts per edge and rebuilds buckets.
	return MustNew(rg, int(n.lifetime), lab)
}

// String summarizes the network.
func (n *Network) String() string {
	return fmt.Sprintf("temporal network on %v, lifetime=%d, labels=%d",
		n.g, n.lifetime, len(n.labels))
}
