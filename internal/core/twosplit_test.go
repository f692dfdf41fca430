package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/assign"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

func starNet(leaves, r int, seed uint64) *temporal.Network {
	g := graph.Star(leaves + 1)
	lab := assign.Uniform(g, g.N(), r, rng.New(seed))
	return temporal.MustNew(g, g.N(), lab)
}

func TestTwoSplitHandExample(t *testing.T) {
	// Star with 3 leaves, lifetime 4, half = 2.
	g := graph.Star(4)
	// Edge 0: labels {1} (early only); edge 1: {3} (late only);
	// edge 2: {2, 4} (both).
	net := temporal.MustNew(g, 4, temporal.LabelingFromSets([][]int{{1}, {3}, {2, 4}}))
	s := TwoSplit(net)
	if s.Leaves != 3 {
		t.Fatalf("leaves = %d", s.Leaves)
	}
	if s.EarlyEdges != 2 || s.LateEdges != 2 {
		t.Fatalf("early/late = %d/%d, want 2/2", s.EarlyEdges, s.LateEdges)
	}
	// Ordered pairs with split: early={0,2}, late={1,2}; pairs (u1,u2)
	// with early(u1) ∧ late(u2), u1≠u2: (0,1),(0,2),(2,1) = 3.
	if s.OrderedPairsWithSplit != 3 {
		t.Fatalf("split pairs = %d, want 3", s.OrderedPairsWithSplit)
	}
	if s.OrderedPairs != 6 {
		t.Fatalf("pairs = %d, want 6", s.OrderedPairs)
	}
	if s.AllPairs() {
		t.Fatal("AllPairs should be false")
	}
	if math.Abs(s.Fraction()-0.5) > 1e-12 {
		t.Fatalf("fraction = %v", s.Fraction())
	}
}

func TestTwoSplitManyLabelsCoversAllPairs(t *testing.T) {
	// ρ log n labels per edge with ρ well above 8 ⇒ all pairs whp.
	leaves := 31
	n := leaves + 1
	r := int(10 * math.Log2(float64(n)))
	ok := 0
	const trials = 20
	for seed := uint64(0); seed < trials; seed++ {
		s := TwoSplit(starNet(leaves, r, seed))
		if s.AllPairs() {
			ok++
		}
	}
	if ok < trials-1 {
		t.Fatalf("all-pairs two-split held only %d/%d", ok, trials)
	}
}

func TestTwoSplitSingleLabelSparse(t *testing.T) {
	// One label per edge: an edge is early xor late, so ~half the ordered
	// pairs get a split.
	var frac float64
	const trials = 30
	for seed := uint64(0); seed < trials; seed++ {
		frac += TwoSplit(starNet(63, 1, seed)).Fraction()
	}
	frac /= trials
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("mean split fraction = %v, want ~0.25", frac)
	}
}

func TestTwoSplitImpliesTreachOnLeaves(t *testing.T) {
	// When AllPairs holds, the star satisfies Treach (center pairs need
	// only any label).
	for seed := uint64(0); seed < 10; seed++ {
		net := starNet(15, 40, seed)
		s := TwoSplit(net)
		if s.AllPairs() && !temporal.SatisfiesTreachSerial(net, nil) {
			t.Fatalf("seed %d: all-pairs 2-split but Treach fails", seed)
		}
	}
}

func TestTwoSplitBounds(t *testing.T) {
	// The pair bound decreases in ρ and the union bound caps at 1.
	if !(TwoSplitPairFailureBound(64, 2) > TwoSplitPairFailureBound(64, 4)) {
		t.Fatal("pair bound not decreasing in rho")
	}
	if TwoSplitAllPairsFailureBound(64, 0.1) != 1 {
		t.Fatal("union bound should cap at 1")
	}
	// ρ > 8 ⇒ union bound < 2/n² (the paper's display).
	n := 64
	b := TwoSplitAllPairsFailureBound(n, 8.5)
	if b >= 2/float64(n*n)*4 { // constant slack for the (n−1) vs n factor
		t.Fatalf("union bound %v not near 2/n²", b)
	}
	if TwoSplitPairFailureBound(1, 3) != 0 {
		t.Fatal("degenerate bound")
	}
}

// Property: the closed-form pair count matches a direct per-pair check.
func TestQuickTwoSplitCountMatchesBruteForce(t *testing.T) {
	f := func(seed uint64, leavesRaw, rRaw uint8) bool {
		leaves := int(leavesRaw)%8 + 2
		r := int(rRaw)%3 + 1
		net := starNet(leaves, r, seed)
		s := TwoSplit(net)
		half := int32(net.Lifetime() / 2)
		var brute int64
		for e1 := 0; e1 < leaves; e1++ {
			for e2 := 0; e2 < leaves; e2++ {
				if e1 == e2 {
					continue
				}
				if net.HasLabelIn(e1, 0, half) && net.HasLabelIn(e2, half, int32(net.Lifetime())) {
					brute++
				}
			}
		}
		return brute == s.OrderedPairsWithSplit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: a 2-split pair really yields a journey (soundness of the
// sufficient condition).
func TestQuickTwoSplitImpliesJourney(t *testing.T) {
	f := func(seed uint64) bool {
		net := starNet(10, 2, seed)
		half := int32(net.Lifetime() / 2)
		for e1 := 0; e1 < 10; e1++ {
			for e2 := 0; e2 < 10; e2++ {
				if e1 == e2 {
					continue
				}
				if net.HasLabelIn(e1, 0, half) && net.HasLabelIn(e2, half, int32(net.Lifetime())) {
					// Leaf for edge e is vertex e+1 (graph.Star layout).
					arr := net.EarliestArrivals(e1 + 1)
					if arr[e2+1] == temporal.Unreachable {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
