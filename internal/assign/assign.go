package assign

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// Uniform draws r independent uniform labels from {1,…,lifetime} for every
// edge of g — the paper's UNI-CASE with r labels per edge. Labels are drawn
// with replacement, exactly as r independent "local bargains" per link;
// duplicate labels on an edge are possible and harmless (journeys see the
// label set). It is FromDistributionInto with dist.NewUniform(lifetime)
// into a fresh labeling, calling the law's SampleInto directly: handing
// the law to FromDistributionInto would box it on the heap.
func Uniform(g *graph.Graph, lifetime, r int, stream *rng.Stream) temporal.Labeling {
	u := dist.NewUniform(lifetime)
	var lab temporal.Labeling
	u.SampleInto(resetRegular(&lab, g.M(), r), stream)
	return lab
}

// NormalizedURTN is the normalized uniform random temporal network
// assignment of Section 3: exactly one uniform label from {1,…,n} per edge,
// where n is the number of vertices.
func NormalizedURTN(g *graph.Graph, stream *rng.Stream) temporal.Labeling {
	return Uniform(g, g.N(), 1, stream)
}

// FromDistributionInto draws r independent labels per edge from an
// arbitrary label law into lab, reusing its backing arrays — the F-CASE of
// the paper's §2 note, and the draw behind avail's i.i.d. models. The
// lifetime is the distribution's.
func FromDistributionInto(lab *temporal.Labeling, g *graph.Graph, d dist.Distribution, r int, stream *rng.Stream) {
	labels := resetRegular(lab, g.M(), r)
	if bulk, ok := d.(interface {
		SampleInto([]int32, *rng.Stream)
	}); ok {
		// Bit-identical to the loop below; laws opt in (dist.Uniform) to
		// skip the per-label interface dispatch on the hot resample path.
		bulk.SampleInto(labels, stream)
		return
	}
	for i := range labels {
		labels[i] = int32(d.Sample(stream))
	}
}

// resetRegular shapes lab for m edges of r labels each, reusing its
// backing arrays, and returns the m·r labels to fill.
func resetRegular(lab *temporal.Labeling, m, r int) []int32 {
	if r < 0 {
		panic("assign: negative labels per edge")
	}
	lab.Reset(m)
	for e := 0; e <= m; e++ {
		lab.Off[e] = int32(e * r)
	}
	if cap(lab.Labels) < m*r {
		lab.Labels = make([]int32, m*r)
	} else {
		lab.Labels = lab.Labels[:m*r]
	}
	return lab.Labels
}

// UniformWindowsInto gives every edge one availability window of w
// consecutive labels starting at a uniformly random position in
// {1,…,lifetime−w+1}, drawn into lab, reusing its backing arrays — the
// discrete bridge to the interval-availability models the paper's §1.2
// contrasts with ([6,14]: Bui-Xuan et al., Fleischer–Tardos). w = 1
// recovers the UNI-CASE exactly; growing w interpolates toward the
// continuous case where links stay up for whole intervals.
func UniformWindowsInto(lab *temporal.Labeling, g *graph.Graph, lifetime, w int, stream *rng.Stream) {
	if lifetime < 1 {
		panic("assign: lifetime must be >= 1")
	}
	if w < 1 || w > lifetime {
		panic("assign: window width must be in [1, lifetime]")
	}
	m := g.M()
	lab.Reset(m)
	if cap(lab.Labels) < m*w {
		lab.Labels = make([]int32, m*w)
	} else {
		lab.Labels = lab.Labels[:m*w]
	}
	for e := 0; e < m; e++ {
		lab.Off[e+1] = int32((e + 1) * w)
		start := int32(1 + stream.Intn(lifetime-w+1))
		for i := 0; i < w; i++ {
			lab.Labels[e*w+i] = start + int32(i)
		}
	}
}

// BoxPicker chooses one label from box i (1-based) of edge e, whose label
// range is [lo, hi]. See Boxes.
type BoxPicker func(e, box int, lo, hi int32) int32

// FirstOfBox picks the smallest label of every box — the canonical
// deterministic witness for Claim 1.
func FirstOfBox(e, box int, lo, hi int32) int32 { return lo }

// Boxes implements the structure s(e) of Section 5 (Fig. 3): the label set
// {1,…,q} is split into d consecutive boxes of size λ = ⌊q/d⌋, and every
// edge receives exactly one label from every box, chosen by pick. Claim 1:
// the result preserves reachability for any connected graph with diameter
// ≤ d. It panics unless q ≥ d ≥ 1.
func Boxes(g *graph.Graph, q, d int, pick BoxPicker) temporal.Labeling {
	if d < 1 || q < d {
		panic(fmt.Sprintf("assign: boxes need q >= d >= 1, got q=%d d=%d", q, d))
	}
	lambda := int32(q / d)
	m := g.M()
	lab := temporal.Labeling{
		Off:    make([]int32, m+1),
		Labels: make([]int32, m*d),
	}
	for e := 0; e < m; e++ {
		lab.Off[e+1] = int32((e + 1) * d)
		for box := 1; box <= d; box++ {
			lo := int32(box-1)*lambda + 1
			hi := int32(box) * lambda
			l := pick(e, box, lo, hi)
			if l < lo || l > hi {
				panic(fmt.Sprintf("assign: picker returned %d outside box [%d,%d]", l, lo, hi))
			}
			lab.Labels[e*d+box-1] = l
		}
	}
	return lab
}

// StarTwoPerEdge is the paper's example assignment for the star: labels
// {1,2} on every edge (OPT's upper bound 2m in the Theorem 6 discussion).
// Any leaf reaches any other leaf by hopping at 1 then at 2.
func StarTwoPerEdge(g *graph.Graph) temporal.Labeling {
	m := g.M()
	lab := temporal.Labeling{
		Off:    make([]int32, m+1),
		Labels: make([]int32, 2*m),
	}
	for e := 0; e < m; e++ {
		lab.Off[e+1] = int32(2 * (e + 1))
		lab.Labels[2*e] = 1
		lab.Labels[2*e+1] = 2
	}
	return lab
}

// StarOptimal is the exactly optimal deterministic star labeling with
// 2m−1 labels and lifetime 2m: edge i < m−1 gets {i+1, 2m−1−i} and the last
// edge gets the single label {m}. Optimality: at most one edge can carry a
// single label (two single-label edges {x} and {y} cannot serve journeys in
// both directions between their leaves), so OPT ≥ 2m−1; this construction
// attains the bound — a small sharpening of the paper's "OPT = 2m" remark
// that the tests verify against exhaustive search.
func StarOptimal(g *graph.Graph) temporal.Labeling {
	m := g.M()
	sets := make([][]int, m)
	for e := 0; e < m-1; e++ {
		sets[e] = []int{e + 1, 2*m - 1 - e}
	}
	if m > 0 {
		sets[m-1] = []int{m}
	}
	return temporal.LabelingFromSets(sets)
}

// DoubleTour labels a spanning tree of the connected undirected graph g
// with the timestamps of two consecutive Euler tours, giving a
// deterministic reachability-preserving assignment with 4(n−1) labels and
// lifetime 4(n−1) — a constant-factor witness for the paper's
// OPT ≥ n−1 bound used by Theorem 8. Non-tree edges receive no labels.
// From any vertex u, following the tour from u's first visit to the end of
// the second tour passes every vertex on strictly increasing timestamps,
// so every ordered pair has a journey. It returns the labeling and the
// required lifetime; it panics on directed or disconnected graphs.
func DoubleTour(g *graph.Graph) (temporal.Labeling, int) {
	if g.Directed() {
		panic("assign: DoubleTour requires an undirected graph")
	}
	n := g.N()
	if n == 0 {
		return temporal.LabelingFromSets(nil), 1
	}
	if !graph.IsConnected(g) {
		panic("assign: DoubleTour requires a connected graph")
	}
	treeEdges := graph.SpanningTree(g)
	inTree := make(map[int]bool, len(treeEdges))
	for _, e := range treeEdges {
		inTree[e] = true
	}
	// Build tree adjacency (neighbor, edge id) for the DFS tour.
	type half struct {
		to, edge int32
	}
	adj := make([][]half, n)
	for _, e := range treeEdges {
		u, v := g.Endpoints(e)
		adj[u] = append(adj[u], half{int32(v), int32(e)})
		adj[v] = append(adj[v], half{int32(u), int32(e)})
	}
	// One Euler tour: each tree edge crossed exactly twice. The DFS is
	// iterative so deep trees (paths) cannot overflow the goroutine stack.
	tour := make([]int32, 0, 2*len(treeEdges)) // sequence of edge ids
	type frame struct {
		u, parent int32
		next      int // index into adj[u]
		edgeIn    int32
	}
	stack := []frame{{u: 0, parent: -1, edgeIn: -1}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		advanced := false
		for f.next < len(adj[f.u]) {
			h := adj[f.u][f.next]
			f.next++
			if h.to == f.parent {
				continue
			}
			tour = append(tour, h.edge)
			stack = append(stack, frame{u: h.to, parent: f.u, edgeIn: h.edge})
			advanced = true
			break
		}
		if advanced {
			continue
		}
		if f.edgeIn >= 0 {
			tour = append(tour, f.edgeIn)
		}
		stack = stack[:len(stack)-1]
	}

	sets := make([][]int, g.M())
	t := 0
	for pass := 0; pass < 2; pass++ {
		for _, e := range tour {
			t++
			sets[e] = append(sets[e], t)
		}
	}
	lifetime := t
	if lifetime == 0 {
		lifetime = 1
	}
	return temporal.LabelingFromSets(sets), lifetime
}
