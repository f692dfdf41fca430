// Package temporal implements the temporal-network model of the paper
// (following Kempe–Kleinberg–Kumar and Mertzios et al.): a static (di)graph
// whose every edge carries a sorted set of integer time labels in
// {1, …, lifetime}, together with the journey machinery built on top —
// foremost (earliest-arrival) journeys, temporal reachability, and the
// temporal diameter.
//
// A label l on edge e={u,v} means e may be crossed exactly at time l (in
// either direction when the graph is undirected). A journey is a path whose
// consecutive hop labels strictly increase; its arrival time is its last
// label. The temporal distance δ(u,v) is the minimum arrival time over all
// (u,v)-journeys.
//
// The hot path is the earliest-arrival engine (engine.go, msreach.go). The
// network keeps two indexes over its M time edges (an (edge, label) pair
// is one time edge): the global list bucket-sorted by label, built at
// construction, and a per-vertex CSR of outgoing time edges sorted by
// label, built on the first frontier query. Three kernels run on those
// indexes:
//
//   - the frontier kernel answers single-source queries: a Dial-style
//     bucket queue settles vertices in arrival order and relaxes only the
//     time edges leaving settled vertices with labels above their arrival,
//     so a query costs O(n + reached time edges) rather than O(M), with
//     early termination once every vertex is settled or the queue drains;
//   - the point scan (EarliestArrivalTo) answers one (s, t, start) pair:
//     it binary-searches the global list for the first label ≥ start and
//     scans forward until t is first reached, which is already its
//     earliest arrival. It needs no row and no per-vertex index, but pays
//     the whole suffix of the list when t is unreachable. It reads the
//     list's labels beside a lazily filled endpoint column, both
//     sequentially (see EarliestArrivalTo);
//   - the word scan answers all-pairs questions: 64 sources share one pass
//     over the label-sorted time-edge list, one uint64 of source bits per
//     vertex, so Treach, violation counts, reachable sets, arrival rows
//     (ArrivalRowsBatch) and the temporal diameter cost ⌈n/64⌉ passes
//     instead of n. The diameter folds each label group's new arrivals
//     into exact integer counts and never materializes an arrival row.
//
// ConnectedPrefix (prefix.go) answers the Ω(log n) remark's question, the
// least label whose prefix (strongly) connects the graph, with one
// label-ordered pass over the same list per direction, stopping at the
// answer; core.PrefixConnected, which builds the prefix graph, is its test
// oracle.
//
// The linear kernel (EarliestArrivalsLinearInto, the original single-pass
// scan) and a Bellman–Ford fixpoint are oracles only (oracle.go): no
// production path runs them, and the differential tests pin the kernels
// to them. The point scan is also checked against the linear kernel on a
// rebuild with every label below start dropped.
//
// All public entry points run on the calling goroutine and draw their work
// arrays from a sync.Pool-backed scratch layer, so steady-state queries
// allocate nothing. For Monte-Carlo workloads that hold the substrate fixed
// and only resample availability, Relabel rebuilds all indexes in place
// over the existing buffers, so a steady-state trial allocates nothing
// either (see sim.BatchRunner, which runs the independent trials in
// parallel).
//
// # Whole edge lists: RelabelEdges
//
// Scenario models (package avail) redraw not just the labels but the edge
// set itself every trial. RelabelEdges extends the in-place machinery to
// that workload: it takes the trial's whole edge list and its labeling in
// edge-id order, rebuilds the network's graph CSR over its buffers
// (graph.ReplaceEdges), copies the labels, and defers the time-edge index
// rebuilds to the same lazy double-checked machinery Relabel uses. Its
// invariants:
//
//   - The network must exclusively own its graph. RelabelEdges mutates the
//     *graph.Graph in place, so anything built against the old topology —
//     a StaticReach, cached adjacency, a shared substrate — is silently
//     invalidated even though the pointer is unchanged. sim.BatchRunner
//     satisfies this by building a private graph per scenario worker.
//   - Edge ids after the call equal the ids a fresh graph.Builder fed the
//     same list would assign: edge i is (from[i], to[i]), in any order.
//     That is what lets a state engine and the from-scratch oracle agree
//     bit for bit (the conformance tests in avail rely on it).
//
// Validation happens before any mutation, so a malformed call (a labeling
// of the wrong shape, an out-of-range label or vertex, a self-loop)
// errors out with the network untouched.
package temporal
