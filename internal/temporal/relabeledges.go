package temporal

import (
	"fmt"

	"repro/internal/obs"
)

// EdgeDelta describes a combined topology + label change for RelabelEdges:
// the support graph loses the edges whose current identifiers appear in
// Remove, gains the edges (InsertFrom[i], InsertTo[i]), and the whole
// network is relabeled with Labels.
//
// The contract mirrors graph.ApplyEdgeDelta, because edge identifiers are
// positional: Remove is strictly ascending; the inserted edges are in
// canonical undirected order (InsertFrom[i] < InsertTo[i], strictly
// ascending lexicographically) and not already present. Labels is the FULL
// post-delta labeling — one CSR run per post-delta edge, in post-delta
// identifier order (the order a fresh graph.Builder fed the merged edge
// list would assign). Carrying the full labeling rather than a
// surviving/inserted split is deliberate: the incremental scenario models
// that drive this path (avail.IncrementalScenario) redraw every edge's
// labels each trial anyway, and their generators emit edges in canonical
// order, so the full labeling is free and the delta needs no
// label-rearrangement pass.
//
// None of the slices are retained; callers may overwrite them immediately
// after the call, which is what the per-trial scenario loop does.
type EdgeDelta struct {
	Remove               []int32
	InsertFrom, InsertTo []int32
	Labels               Labeling
}

// ChurnRebuildThreshold is the churn fraction — (removed + inserted) /
// max(old M, new M) — above which RelabelEdges abandons the merge patch and
// rebuilds the CSR wholesale. The patch saves work by splicing adjacency
// runs sequentially, but once most runs move anyway the straight-line
// counting rebuild (graph.ReplaceEdges) is cheaper and touches memory in
// exactly one pattern. Independent Monte-Carlo trials of the geometric
// scenario churn ~everything and always take the rebuild route; the patch
// route serves small per-step deltas (trace replay, single-walker moves).
const ChurnRebuildThreshold = 0.25

var obsRelabelEdges = obs.NewCounterVec("temporal_relabel_edges_total",
	"RelabelEdges calls by graph-mutation route (patch, rebuild).", "route")

var (
	obsRelabelEdgesPatch   = obsRelabelEdges.With("patch")
	obsRelabelEdgesRebuild = obsRelabelEdges.With("rebuild")
)

// RelabelEdges is Relabel's topology-delta variant: it applies an edge
// insert/remove set to the network's OWN support graph in place, replaces
// the label assignment, and leaves every temporal index to the same lazy
// double-checked rebuild machinery Relabel uses — the label histogram is
// fused into validation here, the counting-sorted time-edge list and the
// per-vertex CSR are rebuilt over existing buffers on first kernel use.
// Queries afterwards are bit-identical to queries on a network freshly
// built from the merged edge list (identical edge identifiers included),
// pinned by the differential and fuzz tests.
//
// Two routes mutate the graph. Below ChurnRebuildThreshold the packed
// adjacency is patched by sequential merge splices (graph.ApplyEdgeDelta);
// above it — the steady state for independent mobility trials — the CSR is
// rebuilt in place over its buffers (graph.ReplaceEdges). Either way a
// steady-state call allocates nothing.
//
// Requirements beyond Relabel's: the network must be undirected and its
// edge list canonically ordered (from < to, lexicographically strictly
// ascending) — true of every scenario-generated graph and preserved by
// RelabelEdges itself. Validation runs before any mutation, so a failed
// call leaves network and graph unchanged.
//
// CAUTION — unlike Relabel, this mutates *n.Graph() itself. The graph must
// be exclusively owned by this network and this caller (sim.BatchRunner
// gives each worker its own); anything derived from the old topology
// (StaticReach, cached adjacency, slices from FromArray/ToArray) is
// invalidated even though the pointer is unchanged. Exclusive access is
// required during the call, exactly as for Relabel.
func (n *Network) RelabelEdges(d EdgeDelta) error {
	g := n.g
	if g.Directed() {
		return fmt.Errorf("temporal: RelabelEdges requires an undirected network")
	}
	m := g.M()
	newM := m - len(d.Remove) + len(d.InsertFrom)
	if len(d.InsertFrom) != len(d.InsertTo) {
		return fmt.Errorf("temporal: %d insert sources but %d targets", len(d.InsertFrom), len(d.InsertTo))
	}
	for i, r := range d.Remove {
		if r < 0 || int(r) >= m {
			return fmt.Errorf("temporal: remove id %d out of range [0,%d)", r, m)
		}
		if i > 0 && r <= d.Remove[i-1] {
			return fmt.Errorf("temporal: remove ids not strictly ascending at %d", r)
		}
	}
	nv := int32(g.N())
	prev := int64(-1)
	for i := range d.InsertFrom {
		u, v := d.InsertFrom[i], d.InsertTo[i]
		if u < 0 || u >= nv || v < 0 || v >= nv || u >= v {
			return fmt.Errorf("temporal: insert (%d,%d) not canonical for n=%d", u, v, nv)
		}
		k := int64(u)*int64(nv) + int64(v)
		if k <= prev {
			return fmt.Errorf("temporal: inserts not strictly ascending at (%d,%d)", u, v)
		}
		prev = k
	}
	regular, err := validateLabelingShape(newM, d.Labels)
	if err != nil {
		return err
	}
	// Fused label-range validation + histogram, exactly as Relabel: scratch
	// only, so the network is untouched if anything below fails; histValid
	// flips true only once the whole delta has been applied.
	counts := growI32(n.teCounts, int(n.lifetime)+2)
	clear(counts)
	n.teCounts = counts
	n.histValid = false
	for _, l := range d.Labels.Labels {
		if l < 1 || l > n.lifetime {
			return fmt.Errorf("temporal: label %d outside [1,%d]", l, n.lifetime)
		}
		counts[l+1]++
	}

	churn := len(d.Remove) + len(d.InsertFrom)
	denom := max(m, newM, 1)
	if float64(churn) > ChurnRebuildThreshold*float64(denom) {
		if err := n.rebuildMerged(d, newM); err != nil {
			return err
		}
		obsRelabelEdgesRebuild.Inc()
	} else {
		if err := g.ApplyEdgeDelta(d.Remove, d.InsertFrom, d.InsertTo); err != nil {
			return err
		}
		obsRelabelEdgesPatch.Inc()
	}

	n.histValid = true
	n.regular = regular
	n.off = growI32(n.off, len(d.Labels.Off))
	copy(n.off, d.Labels.Off)
	n.labels = growI32(n.labels, len(d.Labels.Labels))
	copy(n.labels, d.Labels.Labels)
	n.invalidateIndexes()
	return nil
}

// rebuildMerged materializes the post-delta edge list into retained scratch
// by the same canonical merge walk graph.ApplyEdgeDelta performs — which
// also verifies the current list is canonical — then hands it to
// graph.ReplaceEdges for the in-place counting rebuild.
func (n *Network) rebuildMerged(d EdgeDelta, newM int) error {
	g := n.g
	from, to := g.FromArray(), g.ToArray()
	nv := int64(g.N())
	n.deltaFrom = growI32(n.deltaFrom, newM)
	n.deltaTo = growI32(n.deltaTo, newM)
	nf, nt := n.deltaFrom, n.deltaTo
	ri, ii, out := 0, 0, 0
	prev := int64(-1)
	for e := range from {
		if from[e] >= to[e] {
			return fmt.Errorf("temporal: RelabelEdges requires canonical edges; edge %d is (%d,%d)", e, from[e], to[e])
		}
		k := int64(from[e])*nv + int64(to[e])
		if k <= prev {
			return fmt.Errorf("temporal: RelabelEdges requires canonical edges; order breaks at edge %d", e)
		}
		prev = k
		if ri < len(d.Remove) && int(d.Remove[ri]) == e {
			ri++
			continue
		}
		for ii < len(d.InsertFrom) && int64(d.InsertFrom[ii])*nv+int64(d.InsertTo[ii]) < k {
			nf[out], nt[out] = d.InsertFrom[ii], d.InsertTo[ii]
			out++
			ii++
		}
		if ii < len(d.InsertFrom) && int64(d.InsertFrom[ii])*nv+int64(d.InsertTo[ii]) == k {
			return fmt.Errorf("temporal: insert (%d,%d) already present", d.InsertFrom[ii], d.InsertTo[ii])
		}
		nf[out], nt[out] = from[e], to[e]
		out++
	}
	for ii < len(d.InsertFrom) {
		nf[out], nt[out] = d.InsertFrom[ii], d.InsertTo[ii]
		out++
		ii++
	}
	return g.ReplaceEdges(nf, nt)
}
