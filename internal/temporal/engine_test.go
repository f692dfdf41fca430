package temporal

// Differential tests for the earliest-arrival engine: the frontier kernel,
// the linear oracle and the Bellman–Ford fixpoint must agree on every
// network, and the bit-parallel reachability words must match the scalar
// arrival vectors — across every generator family the experiments use
// (cliques, grids, stars, paths, sparse/dense Gnp, directed and
// undirected, zero to several labels per edge, window labelings) and the
// degenerate sizes n = 0, 1, 2.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
)

// testNetwork is one named differential-test instance.
type testNetwork struct {
	name string
	net  *Network
}

// uniformSets draws r labels per edge from {1,…,lifetime} (r = 0 leaves
// edges label-free, exercising empty time-edge lists).
func uniformSets(g *graph.Graph, lifetime, r int, stream *rng.Stream) Labeling {
	sets := make([][]int, g.M())
	for e := range sets {
		for k := 0; k < r; k++ {
			sets[e] = append(sets[e], 1+stream.Intn(lifetime))
		}
	}
	return LabelingFromSets(sets)
}

// windowSets gives every edge w consecutive labels from a random start —
// the availability-window labeling of E14.
func windowSets(g *graph.Graph, lifetime, w int, stream *rng.Stream) Labeling {
	sets := make([][]int, g.M())
	for e := range sets {
		start := 1 + stream.Intn(lifetime-w+1)
		for k := 0; k < w; k++ {
			sets[e] = append(sets[e], start+k)
		}
	}
	return LabelingFromSets(sets)
}

// generatorNetworks builds the cross-generator instance matrix.
func generatorNetworks(seed uint64) []testNetwork {
	r := rng.New(seed)
	var out []testNetwork
	add := func(name string, g *graph.Graph, lifetime int, lab Labeling) {
		out = append(out, testNetwork{name, MustNew(g, lifetime, lab)})
	}

	for _, directed := range []bool{false, true} {
		g := graph.Clique(16, directed)
		add(fmt.Sprintf("clique16-dir=%v", directed), g, 16, uniformSets(g, 16, 1, r))
	}
	gg := graph.Grid(5, 7)
	add("grid5x7", gg, 35, uniformSets(gg, 35, 2, r))
	gs := graph.Star(12)
	add("star12", gs, 24, uniformSets(gs, 24, 2, r))
	gp := graph.Path(9)
	add("path9", gp, 9, uniformSets(gp, 9, 1, r))
	for _, directed := range []bool{false, true} {
		g := graph.Gnp(24, 0.15, directed, r) // sparse, usually disconnected
		add(fmt.Sprintf("gnp24-sparse-dir=%v", directed), g, 30, uniformSets(g, 30, 1, r))
		g = graph.Gnp(18, 0.5, directed, r)
		add(fmt.Sprintf("gnp18-dense-dir=%v", directed), g, 9, uniformSets(g, 9, 3, r))
	}
	gm := graph.Clique(10, false)
	add("clique10-multilabel", gm, 40, uniformSets(gm, 40, 4, r))
	gw := graph.Grid(4, 4)
	add("grid4x4-windows", gw, 20, windowSets(gw, 20, 3, r))
	gz := graph.Gnp(8, 0.4, false, r)
	add("gnp8-zero-labels", gz, 5, uniformSets(gz, 5, 0, r))
	g1 := graph.Clique(1, false)
	add("single-vertex", g1, 3, LabelingFromSets(nil))
	g2 := graph.Path(2)
	add("two-vertices", g2, 4, uniformSets(g2, 4, 1, r))
	return out
}

// arrivalsAgree fails the test if any kernel disagrees on any source of
// the instance.
func arrivalsAgree(t *testing.T, tn testNetwork) {
	t.Helper()
	nv := tn.net.Graph().N()
	frontier := make([]int32, nv)
	linear := make([]int32, nv)
	for s := 0; s < nv; s++ {
		fr := tn.net.EarliestArrivalsInto(s, frontier)
		lr := tn.net.EarliestArrivalsLinearInto(s, linear)
		fix := tn.net.earliestArrivalsFixpoint(s)
		if fr != lr {
			t.Fatalf("%s: source %d: frontier reached %d, linear reached %d", tn.name, s, fr, lr)
		}
		for v := 0; v < nv; v++ {
			if frontier[v] != fix[v] || linear[v] != fix[v] {
				t.Fatalf("%s: source %d vertex %d: frontier=%d linear=%d fixpoint=%d",
					tn.name, s, v, frontier[v], linear[v], fix[v])
			}
		}
	}
}

func TestEngineMatchesOraclesAcrossGenerators(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		for _, tn := range generatorNetworks(seed) {
			arrivalsAgree(t, tn)
		}
	}
}

func TestBitParallelMatchesScalarArrivals(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, tn := range generatorNetworks(seed) {
			nv := tn.net.Graph().N()
			sources := make([]int, nv)
			for i := range sources {
				sources[i] = i
			}
			sets := ReachableSets(tn.net, sources)
			arr := make([]int32, nv)
			for s := 0; s < nv; s++ {
				tn.net.EarliestArrivalsInto(s, arr)
				for v := 0; v < nv; v++ {
					if sets[s].Contains(v) != (arr[v] != Unreachable) {
						t.Fatalf("%s: reach bit (%d,%d)=%v but arrival %d",
							tn.name, s, v, sets[s].Contains(v), arr[v])
					}
				}
			}
		}
	}
}

// TestBitParallelMultiBatch forces the >64-source path so batching and
// word-boundary handling are exercised.
func TestBitParallelMultiBatch(t *testing.T) {
	r := rng.New(7)
	g := graph.Gnp(150, 0.05, true, r)
	net := MustNew(g, 150, uniformSets(g, 150, 1, r))
	sources := make([]int, g.N())
	for i := range sources {
		sources[i] = i
	}
	sets := ReachableSets(net, sources)
	arr := make([]int32, g.N())
	for s := range sources {
		reached := net.EarliestArrivalsInto(s, arr)
		if got := sets[s].Count(); got != reached {
			t.Fatalf("source %d: bit-parallel reached %d, scalar %d", s, got, reached)
		}
	}
}

// naiveTreachViolations recounts violations with the per-source scalar
// pipeline the pre-engine implementation used.
func naiveTreachViolations(n *Network) int {
	g := n.Graph()
	nv := g.N()
	arr := make([]int32, nv)
	dist := make([]int32, nv)
	queue := make([]int32, 0, nv)
	bad := 0
	for s := 0; s < nv; s++ {
		graph.BFSInto(g, s, dist, queue)
		n.EarliestArrivalsLinearInto(s, arr)
		for v := 0; v < nv; v++ {
			if dist[v] >= 0 && arr[v] == Unreachable {
				bad++
			}
		}
	}
	return bad
}

func TestTreachEnginesAgree(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, tn := range generatorNetworks(seed) {
			sat := naiveTreachViolations(tn.net) == 0
			if got := SatisfiesTreach(tn.net); got != sat {
				t.Fatalf("%s: SatisfiesTreach = %v, want %v", tn.name, got, sat)
			}
			if got := SatisfiesTreachSerial(tn.net, nil); got != sat {
				t.Fatalf("%s: SatisfiesTreachSerial(nil) = %v, want %v", tn.name, got, sat)
			}
			scratch := NewTreachScratch(tn.net.Graph().N())
			if got := SatisfiesTreachSerial(tn.net, scratch); got != sat {
				t.Fatalf("%s: SatisfiesTreachSerial(scratch) = %v, want %v", tn.name, got, sat)
			}
		}
	}
}

func TestDiameterSerialMatchesParallel(t *testing.T) {
	for _, tn := range generatorNetworks(11) {
		nv := tn.net.Graph().N()
		sources := make([]int, nv)
		for i := range sources {
			sources[i] = i
		}
		par := DiameterFrom(tn.net, sources)
		ser := DiameterFromSerial(tn.net, sources)
		if par != ser {
			t.Fatalf("%s: DiameterFrom = %+v, DiameterFromSerial = %+v", tn.name, par, ser)
		}
		full := Diameter(tn.net)
		if full != ser {
			t.Fatalf("%s: Diameter = %+v, DiameterFromSerial(all) = %+v", tn.name, full, ser)
		}
	}
}

func TestForemostJourneyEngineProperties(t *testing.T) {
	for _, tn := range generatorNetworks(23) {
		nv := tn.net.Graph().N()
		arr := make([]int32, nv)
		for s := 0; s < nv; s++ {
			tn.net.EarliestArrivalsInto(s, arr)
			for v := 0; v < nv; v++ {
				j, ok := tn.net.ForemostJourney(s, v)
				if ok != (arr[v] != Unreachable) {
					t.Fatalf("%s: journey (%d,%d) ok=%v but arrival %d", tn.name, s, v, ok, arr[v])
				}
				if !ok {
					continue
				}
				if err := j.Validate(tn.net); err != nil {
					t.Fatalf("%s: journey (%d,%d) invalid: %v", tn.name, s, v, err)
				}
				want := arr[v]
				if s == v {
					want = 0
				}
				if j.ArrivalTime() != want {
					t.Fatalf("%s: journey (%d,%d) arrives at %d, δ = %d",
						tn.name, s, v, j.ArrivalTime(), want)
				}
			}
		}
	}
}

// FuzzEarliestArrivalKernels lets the fuzzer drive graph shape, direction,
// lifetime and the label multiset, cross-checking frontier, linear and
// fixpoint kernels from every source, the point scan at a fuzzed start
// (from −1 to lifetime+2) against the restricted frontier row, and the
// word-scan diameter against the linear-oracle fold on all, sampled and
// duplicated sources.
func FuzzEarliestArrivalKernels(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(3), true, uint8(0))
	f.Add(uint64(42), uint8(12), uint8(1), false, uint8(3))
	f.Add(uint64(7), uint8(2), uint8(0), true, uint8(11))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, labRaw uint8, directed bool, startRaw uint8) {
		r := rng.New(seed)
		n := int(nRaw)%14 + 1
		lifetime := int(labRaw)%9 + 1
		g := graph.Gnp(n, 0.35, directed, r)
		sets := make([][]int, g.M())
		for e := range sets {
			for k := r.Intn(4); k > 0; k-- {
				sets[e] = append(sets[e], 1+r.Intn(lifetime))
			}
		}
		net := MustNew(g, lifetime, LabelingFromSets(sets))
		frontier := make([]int32, n)
		linear := make([]int32, n)
		for s := 0; s < n; s++ {
			fr := net.EarliestArrivalsInto(s, frontier)
			lr := net.EarliestArrivalsLinearInto(s, linear)
			fix := net.earliestArrivalsFixpoint(s)
			if fr != lr {
				t.Fatalf("source %d: reached frontier=%d linear=%d", s, fr, lr)
			}
			for v := 0; v < n; v++ {
				if frontier[v] != fix[v] || linear[v] != fix[v] {
					t.Fatalf("source %d vertex %d: frontier=%d linear=%d fixpoint=%d",
						s, v, frontier[v], linear[v], fix[v])
				}
			}
		}
		start := int32(startRaw)%int32(lifetime+4) - 1
		for s := 0; s < n; s++ {
			net.EarliestArrivalsFromInto(s, start, frontier)
			for v := 0; v < n; v++ {
				if a := net.EarliestArrivalTo(s, v, start); a != frontier[v] {
					t.Fatalf("start %d: EarliestArrivalTo(%d, %d) = %d, frontier %d",
						start, s, v, a, frontier[v])
				}
			}
		}
		for _, sources := range sourceSets(n, r) {
			diameterMatchesOracle(t, "fuzz", net, sources)
		}
	})
}

// TestEmptyNetworkDegenerates pins the n = 0 behavior of every all-pairs
// entry point.
func TestEmptyNetworkDegenerates(t *testing.T) {
	g := graph.NewBuilder(0, false).Build()
	net := MustNew(g, 1, LabelingFromSets(nil))
	if !SatisfiesTreach(net) || !SatisfiesTreachSerial(net, nil) {
		t.Fatal("empty network must satisfy Treach")
	}
	if res := Diameter(net); !res.AllReachable || res.Max != 0 || res.Pairs != 0 {
		t.Fatalf("empty network diameter = %+v", res)
	}
	if sets := ReachableSets(net, nil); len(sets) != 0 {
		t.Fatalf("empty network reachable sets = %v", sets)
	}
}

// TestHugeLifetimeSparseLabels pins the rank-indexed bucket queue's
// independence from the lifetime: a network whose few labels are spread
// over a hundred-million-step lifetime must answer in O(distinct labels),
// not O(lifetime).
func TestHugeLifetimeSparseLabels(t *testing.T) {
	g := graph.Path(50)
	sets := make([][]int, g.M())
	for e := range sets {
		sets[e] = []int{1 + e*1_000_000}
	}
	net := MustNew(g, 100_000_000, LabelingFromSets(sets))
	start := time.Now()
	arr := net.EarliestArrivals(0)
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("huge-lifetime query took %v", d)
	}
	want := net.earliestArrivalsFixpoint(0)
	for v := range arr {
		if arr[v] != want[v] {
			t.Fatalf("vertex %d: got %d want %d", v, arr[v], want[v])
		}
	}
	if _, ok := net.ForemostJourney(0, 49); !ok {
		t.Fatal("journey to 49 must exist")
	}
}
