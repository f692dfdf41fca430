package assign

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

func TestUniformShape(t *testing.T) {
	g := graph.Clique(10, false)
	lab := Uniform(g, 10, 3, rng.New(1))
	if len(lab.Labels) != g.M()*3 {
		t.Fatalf("Count = %d, want %d", len(lab.Labels), g.M()*3)
	}
	net := temporal.MustNew(g, 10, lab)
	for e := 0; e < g.M(); e++ {
		if len(net.EdgeLabels(e)) != 3 {
			t.Fatalf("edge %d has %d labels, want 3", e, len(net.EdgeLabels(e)))
		}
		for _, l := range net.EdgeLabels(e) {
			if l < 1 || l > 10 {
				t.Fatalf("label %d out of range", l)
			}
		}
	}
}

func TestUniformZeroLabels(t *testing.T) {
	g := graph.Path(4)
	lab := Uniform(g, 5, 0, rng.New(1))
	if len(lab.Labels) != 0 {
		t.Fatalf("Count = %d, want 0", len(lab.Labels))
	}
	// Still a valid (empty) labeling.
	temporal.MustNew(g, 5, lab)
}

func TestUniformDeterministicPerSeed(t *testing.T) {
	g := graph.Star(20)
	a := Uniform(g, 20, 2, rng.New(7))
	b := Uniform(g, 20, 2, rng.New(7))
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different labelings")
		}
	}
}

func TestUniformMarginalIsUniform(t *testing.T) {
	// Pool all labels over many draws; each value 1..a should appear with
	// frequency ~1/a.
	g := graph.Clique(8, false) // 28 edges
	const lifetime = 8
	counts := make([]int, lifetime+1)
	total := 0
	for seed := uint64(0); seed < 300; seed++ {
		lab := Uniform(g, lifetime, 1, rng.New(seed))
		for _, l := range lab.Labels {
			counts[l]++
			total++
		}
	}
	for v := 1; v <= lifetime; v++ {
		f := float64(counts[v]) / float64(total)
		if f < 0.10 || f > 0.15 {
			t.Fatalf("label %d frequency %.4f, want ~0.125", v, f)
		}
	}
}

func TestNormalizedURTN(t *testing.T) {
	g := graph.Clique(16, true)
	lab := NormalizedURTN(g, rng.New(3))
	if len(lab.Labels) != g.M() {
		t.Fatalf("Count = %d, want %d", len(lab.Labels), g.M())
	}
	for _, l := range lab.Labels {
		if l < 1 || l > 16 {
			t.Fatalf("label %d outside normalized range", l)
		}
	}
}

func TestFromDistribution(t *testing.T) {
	g := graph.Path(10)
	d := dist.NewGeometric(0.3, 20)
	lab := FromDistribution(g, d, 4, rng.New(5))
	if len(lab.Labels) != g.M()*4 {
		t.Fatalf("Count = %d", len(lab.Labels))
	}
	temporal.MustNew(g, 20, lab) // validates range
}

// consecutive labels every edge {1,…,d}, the global-coordination baseline
// of the paper's introduction: Boxes with one-label boxes (q = d).
func consecutive(g *graph.Graph, d int) temporal.Labeling {
	return Boxes(g, d, d, FirstOfBox)
}

// randomInBox draws uniformly inside each box: random labels conditioned
// on hitting every box, the view behind Theorem 7.
func randomInBox(stream *rng.Stream) BoxPicker {
	return func(e, box int, lo, hi int32) int32 {
		return lo + int32(stream.Intn(int(hi-lo+1)))
	}
}

func TestConsecutivePreservesReachability(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(8), graph.Cycle(9), graph.Grid(3, 4), graph.Star(7), graph.Hypercube(3),
	} {
		d, conn := graph.Diameter(g)
		if !conn {
			t.Fatal("test graph disconnected")
		}
		lab := consecutive(g, d)
		net := temporal.MustNew(g, d, lab)
		if !temporal.SatisfiesTreachSerial(net, nil) {
			t.Fatalf("consecutive labeling violated Treach on %v", g)
		}
	}
}

func TestConsecutiveTooFewLabelsFails(t *testing.T) {
	// With fewer than diam labels, the diameter-realizing pair is cut off.
	g := graph.Path(8) // diameter 7
	lab := consecutive(g, 3)
	net := temporal.MustNew(g, 3, lab)
	if temporal.SatisfiesTreachSerial(net, nil) {
		t.Fatal("3 consecutive labels cannot satisfy Treach on a diameter-7 path")
	}
}

func TestBoxesClaim1AllFamilies(t *testing.T) {
	// Claim 1: one label in every box of every edge guarantees Treach.
	families := []*graph.Graph{
		graph.Path(9), graph.Cycle(10), graph.Grid(3, 5), graph.Star(9),
		graph.Hypercube(4), graph.BinaryTree(15), graph.Lollipop(10, 4),
	}
	for _, g := range families {
		d, _ := graph.Diameter(g)
		for _, q := range []int{d, 2 * d, 3*d + 1} {
			lab := Boxes(g, q, d, FirstOfBox)
			net := temporal.MustNew(g, q, lab)
			if !temporal.SatisfiesTreachSerial(net, nil) {
				t.Fatalf("box labeling violated Treach on %v with q=%d d=%d", g, q, d)
			}
		}
	}
}

func TestBoxesRandomPicker(t *testing.T) {
	g := graph.Grid(4, 4)
	d, _ := graph.Diameter(g)
	q := 4 * d
	for seed := uint64(0); seed < 10; seed++ {
		lab := Boxes(g, q, d, randomInBox(rng.New(seed)))
		net := temporal.MustNew(g, q, lab)
		if !temporal.SatisfiesTreachSerial(net, nil) {
			t.Fatalf("random-in-box labeling violated Treach (seed %d)", seed)
		}
	}
}

func TestBoxesLabelRanges(t *testing.T) {
	g := graph.Path(4)
	lab := Boxes(g, 10, 3, FirstOfBox) // λ = 3, boxes [1,3],[4,6],[7,9]
	net := temporal.MustNew(g, 10, lab)
	for e := 0; e < g.M(); e++ {
		ls := net.EdgeLabels(e)
		want := []int32{1, 4, 7}
		for i := range want {
			if ls[i] != want[i] {
				t.Fatalf("edge %d labels = %v, want %v", e, ls, want)
			}
		}
	}
}

func TestBoxesPanics(t *testing.T) {
	g := graph.Path(3)
	for name, fn := range map[string]func(){
		"d0":     func() { Boxes(g, 5, 0, FirstOfBox) },
		"q<d":    func() { Boxes(g, 2, 3, FirstOfBox) },
		"escape": func() { Boxes(g, 6, 2, func(e, box int, lo, hi int32) int32 { return hi + 1 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestStarTwoPerEdge(t *testing.T) {
	for _, n := range []int{3, 5, 12} {
		g := graph.Star(n)
		lab := StarTwoPerEdge(g)
		if len(lab.Labels) != 2*g.M() {
			t.Fatalf("Count = %d, want %d", len(lab.Labels), 2*g.M())
		}
		net := temporal.MustNew(g, 2, lab)
		if !temporal.SatisfiesTreachSerial(net, nil) {
			t.Fatalf("StarTwoPerEdge violated Treach on K_{1,%d}", n-1)
		}
	}
}

func TestStarOptimalReachesAndCounts(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6, 12, 30} {
		g := graph.Star(n)
		m := g.M()
		lab := StarOptimal(g)
		if len(lab.Labels) != 2*m-1 {
			t.Fatalf("K_{1,%d}: Count = %d, want %d", n-1, len(lab.Labels), 2*m-1)
		}
		net := temporal.MustNew(g, 2*m, lab)
		if !temporal.SatisfiesTreachSerial(net, nil) {
			t.Fatalf("StarOptimal violated Treach on K_{1,%d}", n-1)
		}
	}
}

func TestDoubleTourPreservesReachability(t *testing.T) {
	families := []*graph.Graph{
		graph.Path(10), graph.Cycle(8), graph.Star(9), graph.Grid(3, 4),
		graph.BinaryTree(15), graph.Clique(6, false), graph.RandomTree(40, rng.New(9)),
	}
	for _, g := range families {
		lab, lifetime := DoubleTour(g)
		if len(lab.Labels) != 4*(g.N()-1) {
			t.Fatalf("%v: Count = %d, want %d", g, len(lab.Labels), 4*(g.N()-1))
		}
		if lifetime != 4*(g.N()-1) {
			t.Fatalf("%v: lifetime = %d", g, lifetime)
		}
		net := temporal.MustNew(g, lifetime, lab)
		if !temporal.SatisfiesTreachSerial(net, nil) {
			t.Fatalf("DoubleTour violated Treach on %v", g)
		}
	}
}

func TestDoubleTourDeepPath(t *testing.T) {
	// Iterative DFS must survive a very deep tree.
	g := graph.Path(20000)
	lab, lifetime := DoubleTour(g)
	net := temporal.MustNew(g, lifetime, lab)
	// Spot-check long-distance pairs rather than the O(n²) full property.
	arr := net.EarliestArrivals(g.N() - 1)
	if arr[0] == temporal.Unreachable {
		t.Fatal("end-to-end journey missing")
	}
	arr = net.EarliestArrivals(0)
	if arr[g.N()-1] == temporal.Unreachable {
		t.Fatal("start-to-end journey missing")
	}
}

func TestDoubleTourPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"directed": func() { DoubleTour(graph.Clique(3, true)) },
		"disconnected": func() {
			b := graph.NewBuilder(4, false)
			b.AddEdge(0, 1)
			DoubleTour(b.Build())
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestOptBounds(t *testing.T) {
	g := graph.Grid(3, 3)
	lo, hi := OptBounds(g)
	if lo != 8 || hi != 32 {
		t.Fatalf("grid bounds = %d,%d, want 8,32", lo, hi)
	}
	// Star: exact.
	s := graph.Star(6)
	lo, hi = OptBounds(s)
	if lo != 9 || hi != 9 {
		t.Fatalf("star bounds = %d,%d, want 9,9", lo, hi)
	}
	// Degenerate.
	lo, hi = OptBounds(graph.NewBuilder(1, false).Build())
	if lo != 0 || hi != 0 {
		t.Fatalf("singleton bounds = %d,%d", lo, hi)
	}
}

func TestIsStar(t *testing.T) {
	if !isStar(graph.Star(5)) {
		t.Fatal("Star(5) not recognized")
	}
	for _, g := range []*graph.Graph{
		graph.Path(4), graph.Cycle(4), graph.Clique(4, false), graph.Star(2),
	} {
		if isStar(g) {
			t.Fatalf("%v wrongly recognized as star", g)
		}
	}
}

func TestOptExactTinyStars(t *testing.T) {
	// K_{1,2}: OPT = 3 = 2m-1 (e.g. {2} and {1,3}).
	opt, ok := OptExact(graph.Star(3), 4, 6)
	if !ok || opt != 3 {
		t.Fatalf("OPT(K_{1,2}) = %d,%v, want 3", opt, ok)
	}
	// Path of 2 vertices: one label suffices.
	opt, ok = OptExact(graph.Path(2), 2, 3)
	if !ok || opt != 1 {
		t.Fatalf("OPT(P_2) = %d,%v, want 1", opt, ok)
	}
	// Triangle: one label per edge suffices (the clique property), so
	// OPT <= 3. Two labels cannot: some edge is then empty, and the two
	// journeys between its endpoints must cross the remaining path in both
	// directions, demanding contradictory label orders.
	opt, ok = OptExact(graph.Clique(3, false), 3, 4)
	if !ok || opt != 3 {
		t.Fatalf("OPT(K_3) = %d,%v, want 3", opt, ok)
	}
}

func TestOptExactMatchesStarOptimalFormula(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search")
	}
	// K_{1,3}: OPT = 2m-1 = 5 with q = 6.
	opt, ok := OptExact(graph.Star(4), 6, 6)
	if !ok || opt != 5 {
		t.Fatalf("OPT(K_{1,3}) = %d,%v, want 5", opt, ok)
	}
}

func TestOptExactBudgetTooSmall(t *testing.T) {
	_, ok := OptExact(graph.Star(3), 4, 2)
	if ok {
		t.Fatal("budget 2 cannot satisfy K_{1,2}")
	}
}

func TestOptExactPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("OptExact with huge q should panic")
		}
	}()
	OptExact(graph.Path(2), 25, 10)
}

// Property: Uniform labelings always validate and have exactly r labels per
// edge.
func TestQuickUniformValid(t *testing.T) {
	f := func(seed uint64, nRaw, rRaw, aRaw uint8) bool {
		n := int(nRaw)%12 + 2
		r := int(rRaw) % 4
		a := int(aRaw)%20 + 1
		g := graph.Gnp(n, 0.5, false, rng.New(seed))
		lab := Uniform(g, a, r, rng.New(seed+1))
		if len(lab.Labels) != g.M()*r {
			return false
		}
		_, err := temporal.New(g, a, lab)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Boxes with the random picker places exactly one label in each
// box window.
func TestQuickBoxesOnePerBox(t *testing.T) {
	f := func(seed uint64, dRaw, mult uint8) bool {
		d := int(dRaw)%5 + 1
		q := d * (int(mult)%4 + 1)
		g := graph.Cycle(6)
		lab := Boxes(g, q, d, randomInBox(rng.New(seed)))
		net := temporal.MustNew(g, q, lab)
		lambda := int32(q / d)
		for e := 0; e < g.M(); e++ {
			for box := 1; box <= d; box++ {
				lo := int32(box-1)*lambda + 1
				hi := int32(box) * lambda
				if !net.HasLabelIn(e, lo-1, hi) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUniformCliqueDirected512(b *testing.B) {
	g := graph.Clique(512, true)
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NormalizedURTN(g, r)
	}
}

func TestUniformPanics(t *testing.T) {
	g := graph.Path(3)
	for name, fn := range map[string]func(){
		"lifetime-0": func() { Uniform(g, 0, 1, rng.New(1)) },
		"negative-r": func() { Uniform(g, 5, -1, rng.New(1)) },
		"fcase-neg":  func() { FromDistribution(g, dist.NewUniform(5), -2, rng.New(1)) },
		"consec-0":   func() { consecutive(g, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestStarOptimalDegenerate(t *testing.T) {
	// K_{1,1} = single edge: one label suffices and is what the formula
	// yields (2m-1 = 1).
	g := graph.Star(2)
	lab := StarOptimal(g)
	if len(lab.Labels) != 1 {
		t.Fatalf("K_{1,1} labels = %d, want 1", len(lab.Labels))
	}
	net := temporal.MustNew(g, 2, lab)
	if !temporal.SatisfiesTreachSerial(net, nil) {
		t.Fatal("single-edge star not reachable")
	}
}

func TestDoubleTourSingleVertex(t *testing.T) {
	lab, lifetime := DoubleTour(graph.NewBuilder(1, false).Build())
	if len(lab.Labels) != 0 || lifetime != 1 {
		t.Fatalf("singleton tour: labels=%d lifetime=%d", len(lab.Labels), lifetime)
	}
}

// Property: consecutive(d) journeys realize every shortest path: for any
// connected family graph, Treach holds exactly when d >= diameter.
func TestQuickConsecutiveThresholdAtDiameter(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(10) + 3
		g := graph.RandomTree(n, r)
		diam, _ := graph.Diameter(g)
		if diam < 2 {
			return true
		}
		below := temporal.MustNew(g, diam-1, consecutive(g, diam-1))
		at := temporal.MustNew(g, diam, consecutive(g, diam))
		return !temporal.SatisfiesTreachSerial(below, nil) &&
			temporal.SatisfiesTreachSerial(at, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformWindowsShape(t *testing.T) {
	g := graph.Cycle(12)
	lab := UniformWindows(g, 20, 4, rng.New(3))
	if len(lab.Labels) != g.M()*4 {
		t.Fatalf("Count = %d, want %d", len(lab.Labels), g.M()*4)
	}
	net := temporal.MustNew(g, 20, lab)
	for e := 0; e < g.M(); e++ {
		ls := net.EdgeLabels(e)
		if len(ls) != 4 {
			t.Fatalf("edge %d has %d labels", e, len(ls))
		}
		for i := 1; i < len(ls); i++ {
			if ls[i] != ls[i-1]+1 {
				t.Fatalf("edge %d labels not consecutive: %v", e, ls)
			}
		}
		if ls[0] < 1 || ls[len(ls)-1] > 20 {
			t.Fatalf("edge %d window out of range: %v", e, ls)
		}
	}
}

func TestUniformWindowsWidthOneIsURTN(t *testing.T) {
	// w=1 must produce exactly one uniform label per edge.
	g := graph.Star(10)
	lab := UniformWindows(g, 10, 1, rng.New(4))
	net := temporal.MustNew(g, 10, lab)
	for e := 0; e < g.M(); e++ {
		if len(net.EdgeLabels(e)) != 1 {
			t.Fatalf("w=1 gave %d labels", len(net.EdgeLabels(e)))
		}
	}
}

func TestUniformWindowsFullLifetime(t *testing.T) {
	// w = lifetime: every edge available at every instant — the network
	// must satisfy Treach whenever the graph is connected (labels {1..a}
	// with a >= diameter supply any increasing sequence).
	g := graph.Grid(3, 3)
	lab := UniformWindows(g, g.N(), g.N(), rng.New(5))
	net := temporal.MustNew(g, g.N(), lab)
	if !temporal.SatisfiesTreachSerial(net, nil) {
		t.Fatal("always-on network violated Treach")
	}
}

func TestUniformWindowsPanics(t *testing.T) {
	g := graph.Path(3)
	for name, fn := range map[string]func(){
		"w0":        func() { UniformWindows(g, 5, 0, rng.New(1)) },
		"w>a":       func() { UniformWindows(g, 5, 6, rng.New(1)) },
		"lifetime0": func() { UniformWindows(g, 0, 1, rng.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestUniformWindowsIntoMatchesUniformWindows pins the in-place redraw
// against the allocating draw from the same stream state — into one reused
// labeling, after a larger draw and then after a smaller one — including
// where each leaves the stream.
func TestUniformWindowsIntoMatchesUniformWindows(t *testing.T) {
	var lab temporal.Labeling
	for i, tc := range []struct {
		name        string
		g           *graph.Graph
		lifetime, w int
	}{
		{"fresh", graph.Clique(12, true), 30, 5},
		{"after-larger", graph.Cycle(7), 30, 2},
		{"after-smaller", graph.Clique(9, false), 20, 3},
	} {
		s, ref := rng.New(uint64(i)+7), rng.New(uint64(i)+7)
		want := UniformWindows(tc.g, tc.lifetime, tc.w, ref)
		UniformWindowsInto(&lab, tc.g, tc.lifetime, tc.w, s)
		if !slices.Equal(lab.Off, want.Off) || !slices.Equal(lab.Labels, want.Labels) {
			t.Fatalf("%s: in-place labeling %v/%v, want %v/%v", tc.name, lab.Off, lab.Labels, want.Off, want.Labels)
		}
		if got, next := s.Uint64(), ref.Uint64(); got != next {
			t.Fatalf("%s: stream left at %#x, want %#x", tc.name, got, next)
		}
	}
}

// Property: window start positions are uniform — the first label never
// exceeds lifetime-w+1 and all starts appear over many draws.
func TestQuickUniformWindowsStartRange(t *testing.T) {
	f := func(seed uint64, wRaw uint8) bool {
		const a = 16
		w := int(wRaw)%a + 1
		g := graph.Path(4)
		lab := UniformWindows(g, a, w, rng.New(seed))
		net := temporal.MustNew(g, a, lab)
		for e := 0; e < g.M(); e++ {
			ls := net.EdgeLabels(e)
			if int(ls[0]) > a-w+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
