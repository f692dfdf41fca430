package temporal_test

// Differential coverage for the batch arrival kernel and the restricted
// (start > 1) query surface the query index serves on: ArrivalRowsBatch
// must agree bit-for-bit with the frontier kernel on every availability
// model × substrate (including n = 0 and 1), and the restricted entry
// points (the frontier row and the point scan) must agree with the linear
// oracle on a label-filtered rebuild.

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// TestArrivalRowsBatchMatchesFrontier runs every source of every model ×
// substrate instance through the 64-way batch kernel and the frontier
// kernel and requires identical rows.
func TestArrivalRowsBatchMatchesFrontier(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		for _, tn := range availNetworks(t, seed) {
			nv := tn.net.Graph().N()
			want := make([]int32, nv)
			rows := make([][]int32, 0, 64)
			sources := make([]int32, 0, 64)
			flush := func() {
				tn.net.ArrivalRowsBatch(sources, rows)
				for j, s := range sources {
					tn.net.EarliestArrivalsInto(int(s), want)
					for v := 0; v < nv; v++ {
						if rows[j][v] != want[v] {
							t.Fatalf("%s: source %d vertex %d: batch=%d frontier=%d",
								tn.name, s, v, rows[j][v], want[v])
						}
					}
				}
				rows, sources = rows[:0], sources[:0]
			}
			for s := 0; s < nv; s++ {
				sources = append(sources, int32(s))
				rows = append(rows, make([]int32, nv))
				if len(sources) == 64 {
					flush()
				}
			}
			if len(sources) > 0 {
				flush()
			}
		}
	}
}

// TestArrivalGroupsContract checks what ArrivalGroups promises its
// callers beyond the rows ArrivalRowsBatch builds from it: labels strictly
// increase from call to call, no (source, vertex) pair is reported twice,
// a source's own vertex never, and the reported pairs are exactly the
// reachable ones, each at its frontier arrival.
func TestArrivalGroupsContract(t *testing.T) {
	for _, tn := range availNetworks(t, 3) {
		nv := tn.net.Graph().N()
		sources := make([]int32, min(nv, 64))
		for j := range sources {
			sources[j] = int32(nv - 1 - j) // reversed: bit j is not vertex j
		}
		got := make(map[[2]int32]int32)
		last := int32(0)
		tn.net.ArrivalGroups(sources, func(label int32, dirty []int32, pend []uint64) {
			if label <= last {
				t.Fatalf("%s: label %d after %d", tn.name, label, last)
			}
			last = label
			for _, v := range dirty {
				for j := range sources {
					if pend[v]>>uint(j)&1 == 0 {
						continue
					}
					k := [2]int32{int32(j), v}
					if _, dup := got[k]; dup || sources[j] == v {
						t.Fatalf("%s: source %d vertex %d reported at %d (dup=%v)", tn.name, sources[j], v, label, dup)
					}
					got[k] = label
				}
			}
		})
		want := make([]int32, nv)
		for j, s := range sources {
			tn.net.EarliestArrivalsInto(int(s), want)
			for v := 0; v < nv; v++ {
				a, ok := got[[2]int32{int32(j), int32(v)}]
				if int32(v) == s || want[v] == temporal.Unreachable {
					if ok {
						t.Fatalf("%s: source %d vertex %d reported at %d, frontier %d", tn.name, s, v, a, want[v])
					}
				} else if !ok || a != want[v] {
					t.Fatalf("%s: source %d vertex %d: reported=%v at %d, frontier %d", tn.name, s, v, ok, a, want[v])
				}
			}
		}
	}
}

// TestArrivalRowsBatchOddBatches exercises non-aligned batch shapes: a
// single source, a duplicated source, and a reversed source order must all
// reproduce the frontier rows.
func TestArrivalRowsBatchOddBatches(t *testing.T) {
	g := graph.Grid(5, 5)
	net := randomNetwork(t, g, 30, 2, 99)
	nv := g.N()
	want := make([]int32, nv)
	for _, sources := range [][]int32{
		{7},
		{3, 3},
		{24, 0, 12, 12, 5},
	} {
		rows := make([][]int32, len(sources))
		for i := range rows {
			rows[i] = make([]int32, nv)
		}
		net.ArrivalRowsBatch(sources, rows)
		for j, s := range sources {
			net.EarliestArrivalsInto(int(s), want)
			for v := 0; v < nv; v++ {
				if rows[j][v] != want[v] {
					t.Fatalf("sources %v: row %d vertex %d: batch=%d frontier=%d",
						sources, j, v, rows[j][v], want[v])
				}
			}
		}
	}
	// Degenerate shapes: empty source lists are a no-op, oversized and
	// undersized row sets are programming errors.
	net.ArrivalRowsBatch(nil, nil)
	mustPanic(t, "oversized batch", func() {
		net.ArrivalRowsBatch(make([]int32, 65), make([][]int32, 65))
	})
	mustPanic(t, "short rows", func() {
		net.ArrivalRowsBatch([]int32{1, 2}, make([][]int32, 1))
	})
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", what)
		}
	}()
	fn()
}

// randomNetwork assembles a network with r uniform labels per edge.
func randomNetwork(t testing.TB, g *graph.Graph, lifetime, r int, seed uint64) *temporal.Network {
	t.Helper()
	stream := rng.New(seed)
	sets := make([][]int, g.M())
	for e := range sets {
		for k := 0; k < r; k++ {
			sets[e] = append(sets[e], 1+stream.Intn(lifetime))
		}
	}
	return temporal.MustNew(g, lifetime, temporal.LabelingFromSets(sets))
}

// restrictedOracle rebuilds the network with every label < start dropped;
// earliest arrivals on the filtered network are exactly the restricted
// δ_start answers.
func restrictedOracle(t testing.TB, net *temporal.Network, start int32) *temporal.Network {
	t.Helper()
	g := net.Graph()
	sets := make([][]int, g.M())
	for e := 0; e < g.M(); e++ {
		for _, l := range net.EdgeLabels(e) {
			if l >= start {
				sets[e] = append(sets[e], int(l))
			}
		}
	}
	return temporal.MustNew(g, net.Lifetime(), temporal.LabelingFromSets(sets))
}

// TestEarliestArrivalsFromIntoMatchesFilteredOracle pins the restricted
// frontier row and the point scan against the linear oracle on the
// filtered rebuild, for every start in the label range plus the
// out-of-range starts a serving layer can see, and every (s, t) pair
// including s == t.
func TestEarliestArrivalsFromIntoMatchesFilteredOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid4x4", graph.Grid(4, 4)},
		{"dclique6", graph.Clique(6, true)},
		{"path9", graph.Path(9)},
	} {
		net := randomNetwork(t, tc.g, 12, 2, 5)
		nv := tc.g.N()
		got := make([]int32, nv)
		want := make([]int32, nv)
		for start := int32(-1); start <= int32(net.Lifetime())+2; start++ {
			oracle := restrictedOracle(t, net, max(start, 1))
			for s := 0; s < nv; s++ {
				gr := net.EarliestArrivalsFromInto(s, start, got)
				wr := oracle.EarliestArrivalsLinearInto(s, want)
				if gr != wr {
					t.Fatalf("%s: start %d source %d: reached %d, oracle %d",
						tc.name, start, s, gr, wr)
				}
				for v := 0; v < nv; v++ {
					if got[v] != want[v] {
						t.Fatalf("%s: start %d source %d vertex %d: got %d oracle %d",
							tc.name, start, s, v, got[v], want[v])
					}
					if a := net.EarliestArrivalTo(s, v, start); a != want[v] {
						t.Fatalf("%s: start %d: EarliestArrivalTo(%d, %d) = %d, oracle %d",
							tc.name, start, s, v, a, want[v])
					}
				}
			}
		}
	}
}

// TestForemostJourneyFromIsValidAndForemost checks every reconstructed
// restricted journey: hops on real edges carrying their labels, strictly
// increasing labels starting no earlier than start, and arrival equal to
// the restricted earliest arrival; unreachable pairs must report !ok.
func TestForemostJourneyFromIsValidAndForemost(t *testing.T) {
	g := graph.Grid(4, 5)
	net := randomNetwork(t, g, 15, 2, 11)
	nv := g.N()
	arr := make([]int32, nv)
	for start := int32(1); start <= 6; start += 2 {
		for s := 0; s < nv; s++ {
			net.EarliestArrivalsFromInto(s, start, arr)
			for v := 0; v < nv; v++ {
				j, ok := net.ForemostJourneyFrom(s, v, start)
				if s == v {
					if !ok || len(j) != 0 {
						t.Fatalf("start %d: (%d,%d): want empty journey, got %v ok=%v", start, s, v, j, ok)
					}
					continue
				}
				if ok != (arr[v] != temporal.Unreachable) {
					t.Fatalf("start %d: (%d,%d): ok=%v but arrival %d", start, s, v, ok, arr[v])
				}
				if !ok {
					continue
				}
				if got := j.ArrivalTime(); got != arr[v] {
					t.Fatalf("start %d: (%d,%d): journey arrives %d, δ=%d", start, s, v, got, arr[v])
				}
				prev := start - 1
				at := s
				for _, h := range j {
					if h.From != at {
						t.Fatalf("start %d: (%d,%d): hop %+v leaves %d, at %d", start, s, v, h, h.From, at)
					}
					if h.Label <= prev {
						t.Fatalf("start %d: (%d,%d): label %d not increasing past %d", start, s, v, h.Label, prev)
					}
					if !hasEdgeLabel(net, h.Edge, h.Label) {
						t.Fatalf("start %d: (%d,%d): hop %+v uses absent label", start, s, v, h)
					}
					prev, at = h.Label, h.To
				}
				if at != v {
					t.Fatalf("start %d: (%d,%d): journey ends at %d", start, s, v, at)
				}
			}
		}
	}
}

func hasEdgeLabel(net *temporal.Network, e int, l int32) bool {
	for _, x := range net.EdgeLabels(e) {
		if x == l {
			return true
		}
	}
	return false
}
