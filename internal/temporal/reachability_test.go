package temporal

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestReachedCount(t *testing.T) {
	n := pathNet(t, 10, [][]int{{1}, {2}})
	arr := make([]int32, 3)
	if got := n.EarliestArrivalsInto(0, arr); got != 3 {
		t.Fatalf("reached from 0 = %d, want 3", got)
	}
	if got := n.EarliestArrivalsInto(2, arr); got != 1 {
		t.Fatalf("reached from 2 = %d, want 1", got)
	}
}

// eccentricity returns max_t δ(s,t) from the linear-scan oracle and
// whether every vertex was reached.
func eccentricity(n *Network, s int) (int32, bool) {
	arr := make([]int32, n.Graph().N())
	n.EarliestArrivalsLinearInto(s, arr)
	var ecc int32
	all := true
	for v, a := range arr {
		switch {
		case v == s:
		case a == Unreachable:
			all = false
		default:
			ecc = max(ecc, a)
		}
	}
	return ecc, all
}

// cliqueSingleLabelNet assigns one uniform random label per edge of K_n —
// the paper's U-RTN on the (un)directed clique.
func cliqueSingleLabelNet(n int, directed bool, seed uint64) *Network {
	g := graph.Clique(n, directed)
	r := rng.New(seed)
	sets := make([][]int, g.M())
	for e := range sets {
		sets[e] = []int{1 + r.Intn(n)}
	}
	return MustNew(g, n, LabelingFromSets(sets))
}

// TestCliqueAlwaysSatisfiesTreach verifies the paper's observation that the
// clique is temporally reachable with any single label per edge: the direct
// edge (s,t) always provides a one-hop journey.
func TestCliqueAlwaysSatisfiesTreach(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		for _, directed := range []bool{false, true} {
			n := cliqueSingleLabelNet(12, directed, seed)
			if !SatisfiesTreachSerial(n, nil) {
				t.Fatalf("clique with 1 label/edge violated Treach (seed %d, directed=%v)", seed, directed)
			}
			if v := naiveTreachViolations(n); v != 0 {
				t.Fatalf("clique has %d violations", v)
			}
		}
	}
}

// TestStarSingleLabelUsuallyFails checks the converse intuition behind
// Theorem 6: a star with one random label per edge almost always violates
// Treach for moderate n (a leaf-to-leaf journey needs l1 < l2 through the
// center in both directions across all pairs).
func TestStarSingleLabelUsuallyFails(t *testing.T) {
	g := graph.Star(16)
	fails := 0
	const trials = 30
	for seed := uint64(0); seed < trials; seed++ {
		r := rng.New(seed)
		sets := make([][]int, g.M())
		for e := range sets {
			sets[e] = []int{1 + r.Intn(16)}
		}
		n := MustNew(g, 16, LabelingFromSets(sets))
		if !SatisfiesTreachSerial(n, nil) {
			fails++
		}
	}
	if fails < trials*3/4 {
		t.Fatalf("star with 1 label/edge failed Treach only %d/%d times; expected almost always", fails, trials)
	}
}

func TestTreachViolationsCounts(t *testing.T) {
	// Directed chain with a broken second hop: reachable statically but not
	// temporally for pairs (0,2).
	n := pathNet(t, 10, [][]int{{4}, {4}})
	if SatisfiesTreachSerial(n, nil) {
		t.Fatal("chain with equal labels should violate Treach")
	}
	if got := naiveTreachViolations(n); got != 1 {
		t.Fatalf("violations = %d, want 1 (only 0→2)", got)
	}
}

func TestTreachDisconnectedGraphVacuous(t *testing.T) {
	// Static disconnection is allowed: Treach only requires journeys where
	// static paths exist.
	b := graph.NewBuilder(4, false)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	n := MustNew(b.Build(), 5, LabelingFromSets([][]int{{1}, {2}}))
	if !SatisfiesTreachSerial(n, nil) {
		t.Fatal("disconnected graph with good labels should satisfy Treach")
	}
}

func TestTreachEmptyNetwork(t *testing.T) {
	n := MustNew(graph.NewBuilder(0, false).Build(), 1, LabelingFromSets(nil))
	if !SatisfiesTreachSerial(n, nil) {
		t.Fatal("empty network should satisfy Treach")
	}
}

func TestDiameterStarExample(t *testing.T) {
	// Star center 0: edge {0,1} label 2, edge {0,2} label 5.
	g := graph.Star(3)
	n := MustNew(g, 10, LabelingFromSets([][]int{{2}, {5}}))
	res := Diameter(n)
	if res.AllReachable {
		t.Fatal("2→1 requires a label after 5; should be unreachable")
	}
	if res.Max != 5 {
		t.Fatalf("Max = %d, want 5", res.Max)
	}
	if res.Pairs != 6 {
		t.Fatalf("Pairs = %d, want 6", res.Pairs)
	}
	// Reachable pairs: 0→1(2), 0→2(5), 1→0(2), 2→0(5), 1→2(5). Mean 19/5.
	if res.MeanFinite < 3.79 || res.MeanFinite > 3.81 {
		t.Fatalf("MeanFinite = %v, want 3.8", res.MeanFinite)
	}
}

func TestDiameterAllReachable(t *testing.T) {
	// Star with two labels per edge ({1,2} on every edge... but leaves need
	// increasing pairs): labels {1,4} and {2,5}: 1→2 via (1 then 5)? leaf1
	// -(1)-> center -(2 or 5)-> leaf2; leaf2→leaf1 via (2)->(4).
	g := graph.Star(3)
	n := MustNew(g, 10, LabelingFromSets([][]int{{1, 4}, {2, 5}}))
	res := Diameter(n)
	if !res.AllReachable {
		t.Fatal("all pairs should be reachable")
	}
	if res.Max != 4 {
		t.Fatalf("Max = %d, want 4 (2→0 at 2, then 0→1 at 4)", res.Max)
	}
}

func TestDiameterFromSampledSources(t *testing.T) {
	n := pathNet(t, 10, [][]int{{1}, {2}})
	full := Diameter(n)
	sampled := DiameterFromSerial(n, []int{0})
	if sampled.Max != 2 || !sampled.AllReachable {
		t.Fatalf("sampled from 0: %+v", sampled)
	}
	// Full diameter includes unreachable reverse pairs on the directed path.
	if full.AllReachable {
		t.Fatal("directed path cannot be all-reachable")
	}
	if sampled.Pairs != 2 {
		t.Fatalf("sampled pairs = %d, want 2", sampled.Pairs)
	}
}

func TestDiameterEmptyAndSingleton(t *testing.T) {
	empty := MustNew(graph.NewBuilder(0, false).Build(), 1, LabelingFromSets(nil))
	res := Diameter(empty)
	if !res.AllReachable || res.Max != 0 || res.Pairs != 0 {
		t.Fatalf("empty: %+v", res)
	}
	single := MustNew(graph.NewBuilder(1, false).Build(), 1, LabelingFromSets(nil))
	res = Diameter(single)
	if !res.AllReachable || res.Max != 0 || res.Pairs != 0 {
		t.Fatalf("singleton: %+v", res)
	}
}

// TestEccentricity reads a source's eccentricity as the diameter
// restricted to that source.
func TestEccentricity(t *testing.T) {
	n := pathNet(t, 10, [][]int{{1}, {2}})
	if res := DiameterFromSerial(n, []int{0}); !res.AllReachable || res.Max != 2 {
		t.Fatalf("ecc(0) = %d,%v, want 2,true", res.Max, res.AllReachable)
	}
	if res := DiameterFromSerial(n, []int{2}); res.AllReachable || res.Max != 0 {
		t.Fatalf("ecc(2) = %d,%v, want 0,false", res.Max, res.AllReachable)
	}
}

// Property: Diameter.Max equals the max over per-source eccentricities of
// the linear-scan oracle, and AllReachable agrees with them.
func TestQuickDiameterAgreesWithEccentricities(t *testing.T) {
	f := func(seed uint64, directed bool) bool {
		net := randomNetwork(seed, 10, directed)
		res := Diameter(net)
		var maxEcc int32
		all := true
		for s := 0; s < net.Graph().N(); s++ {
			e, a := eccentricity(net, s)
			if e > maxEcc {
				maxEcc = e
			}
			all = all && a
		}
		return res.Max == maxEcc && res.AllReachable == all
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: SatisfiesTreachSerial holds exactly when the per-source recount
// finds no violation.
func TestQuickTreachConsistency(t *testing.T) {
	f := func(seed uint64, directed bool) bool {
		net := randomNetwork(seed, 10, directed)
		return SatisfiesTreachSerial(net, nil) == (naiveTreachViolations(net) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEarliestArrivalsClique256(b *testing.B) {
	net := cliqueSingleLabelNet(256, true, 1)
	arr := make([]int32, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.EarliestArrivalsInto(i%256, arr)
	}
}

func BenchmarkDiameterClique128(b *testing.B) {
	net := cliqueSingleLabelNet(128, true, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Diameter(net)
	}
}
