package graph

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestCliqueUndirected(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 10} {
		g := Clique(n, false)
		if g.M() != n*(n-1)/2 {
			t.Fatalf("K_%d: m=%d, want %d", n, g.M(), n*(n-1)/2)
		}
		for u := 0; u < n; u++ {
			if g.OutDegree(u) != n-1 {
				t.Fatalf("K_%d: deg(%d)=%d", n, u, g.OutDegree(u))
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCliqueDirected(t *testing.T) {
	g := Clique(4, true)
	if g.M() != 12 {
		t.Fatalf("directed K_4: m=%d, want 12", g.M())
	}
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if u == v {
				continue
			}
			if !hasEdge(g, u, v) {
				t.Fatalf("directed clique missing arc (%d,%d)", u, v)
			}
		}
	}
}

func TestStar(t *testing.T) {
	g := Star(6)
	if g.M() != 5 {
		t.Fatalf("star m=%d, want 5", g.M())
	}
	if g.OutDegree(0) != 5 {
		t.Fatalf("center degree %d, want 5", g.OutDegree(0))
	}
	for v := 1; v < 6; v++ {
		if g.OutDegree(v) != 1 {
			t.Fatalf("leaf %d degree %d, want 1", v, g.OutDegree(v))
		}
	}
	d, conn := Diameter(g)
	if !conn || d != 2 {
		t.Fatalf("star diameter %d connected=%v, want 2,true", d, conn)
	}
	// K_{1,1} and K_{1,0} edge cases.
	if Star(2).M() != 1 || Star(1).M() != 0 {
		t.Fatal("tiny stars wrong")
	}
}

func TestPathAndCycle(t *testing.T) {
	p := Path(5)
	if p.M() != 4 {
		t.Fatalf("path m=%d", p.M())
	}
	d, conn := Diameter(p)
	if !conn || d != 4 {
		t.Fatalf("path diameter %d, want 4", d)
	}
	c := Cycle(6)
	if c.M() != 6 {
		t.Fatalf("cycle m=%d", c.M())
	}
	d, conn = Diameter(c)
	if !conn || d != 3 {
		t.Fatalf("C_6 diameter %d, want 3", d)
	}
	for v := 0; v < 6; v++ {
		if c.OutDegree(v) != 2 {
			t.Fatalf("cycle degree %d at %d", c.OutDegree(v), v)
		}
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatalf("grid n=%d", g.N())
	}
	// Edges: 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8 = 17.
	if g.M() != 17 {
		t.Fatalf("grid m=%d, want 17", g.M())
	}
	d, conn := Diameter(g)
	if !conn || d != 5 {
		t.Fatalf("3x4 grid diameter %d, want 5", d)
	}
	// Corner degree 2, center degree 4.
	if g.OutDegree(0) != 2 {
		t.Fatalf("corner degree %d", g.OutDegree(0))
	}
	if g.OutDegree(5) != 4 { // (1,1)
		t.Fatalf("center degree %d", g.OutDegree(5))
	}
}

func TestHypercube(t *testing.T) {
	for d := 0; d <= 6; d++ {
		g := Hypercube(d)
		n := 1 << uint(d)
		if g.N() != n {
			t.Fatalf("Q_%d: n=%d", d, g.N())
		}
		if g.M() != d*n/2 {
			t.Fatalf("Q_%d: m=%d, want %d", d, g.M(), d*n/2)
		}
		diam, conn := Diameter(g)
		if !conn || diam != d {
			t.Fatalf("Q_%d: diameter %d, want %d", d, diam, d)
		}
	}
}

func TestBinaryTree(t *testing.T) {
	g := BinaryTree(7)
	if g.M() != 6 {
		t.Fatalf("binary tree m=%d, want 6", g.M())
	}
	if !IsConnected(g) {
		t.Fatal("binary tree disconnected")
	}
	// Root degree 2, internal 3, leaf 1.
	if g.OutDegree(0) != 2 || g.OutDegree(1) != 3 || g.OutDegree(6) != 1 {
		t.Fatal("binary tree degrees wrong")
	}
	d, _ := Diameter(g)
	if d != 4 {
		t.Fatalf("complete binary tree on 7 vertices has diameter %d, want 4", d)
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	r := rng.New(2)
	for _, n := range []int{1, 2, 3, 4, 10, 50, 200} {
		for trial := 0; trial < 5; trial++ {
			g := RandomTree(n, r)
			if g.M() != n-1 && n > 0 {
				t.Fatalf("n=%d: tree with %d edges", n, g.M())
			}
			if !IsConnected(g) {
				t.Fatalf("n=%d: random tree disconnected", n)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	}
}

func TestRandomTreeUniformOnTiny(t *testing.T) {
	// There are 3 labelled trees on 3 vertices (each choice of center).
	// A uniform generator should hit each about 1/3 of the time.
	r := rng.New(55)
	counts := make(map[int]int) // center vertex -> count
	const trials = 3000
	for i := 0; i < trials; i++ {
		g := RandomTree(3, r)
		for v := 0; v < 3; v++ {
			if g.OutDegree(v) == 2 {
				counts[v]++
			}
		}
	}
	for v := 0; v < 3; v++ {
		f := float64(counts[v]) / trials
		if math.Abs(f-1.0/3) > 0.04 {
			t.Fatalf("tree center %d frequency %.3f, want ~0.333 (counts %v)", v, f, counts)
		}
	}
}

func TestGnpEdgeCount(t *testing.T) {
	r := rng.New(7)
	const n = 200
	p := 0.05
	var total int
	const trials = 30
	for i := 0; i < trials; i++ {
		g := Gnp(n, p, false, r)
		total += g.M()
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	mean := float64(total) / trials
	want := p * float64(n*(n-1)/2)
	if math.Abs(mean-want) > want*0.1 {
		t.Fatalf("Gnp mean edges %.1f, want ~%.1f", mean, want)
	}
}

func TestGnpDirectedEdgeCount(t *testing.T) {
	r := rng.New(8)
	const n = 100
	p := 0.1
	var total int
	const trials = 30
	for i := 0; i < trials; i++ {
		g := Gnp(n, p, true, r)
		total += g.M()
	}
	mean := float64(total) / trials
	want := p * float64(n*(n-1))
	if math.Abs(mean-want) > want*0.1 {
		t.Fatalf("directed Gnp mean arcs %.1f, want ~%.1f", mean, want)
	}
}

func TestGnpExtremes(t *testing.T) {
	r := rng.New(9)
	if g := Gnp(10, 0, false, r); g.M() != 0 {
		t.Fatal("Gnp(p=0) has edges")
	}
	if g := Gnp(10, 1, false, r); g.M() != 45 {
		t.Fatalf("Gnp(p=1) m=%d, want 45", g.M())
	}
	if g := Gnp(10, 1, true, r); g.M() != 90 {
		t.Fatalf("directed Gnp(p=1) m=%d, want 90", g.M())
	}
	if g := Gnp(1, 0.5, false, r); g.M() != 0 {
		t.Fatal("Gnp(n=1) has edges")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Gnp(p=2) should panic")
		}
	}()
	Gnp(5, 2, false, r)
}

func TestRandomRegular(t *testing.T) {
	r := rng.New(11)
	for _, tc := range []struct{ n, d int }{{10, 3}, {20, 4}, {8, 0}, {6, 5}} {
		g := RandomRegular(tc.n, tc.d, r)
		for v := 0; v < tc.n; v++ {
			if g.OutDegree(v) != tc.d {
				t.Fatalf("RandomRegular(%d,%d): deg(%d)=%d", tc.n, tc.d, v, g.OutDegree(v))
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []struct{ n, d int }{{5, 3}, {4, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RandomRegular(%d,%d) should panic", bad.n, bad.d)
				}
			}()
			RandomRegular(bad.n, bad.d, r)
		}()
	}
}

func TestLollipop(t *testing.T) {
	g := Lollipop(10, 4)
	if g.M() != 4*3/2+6 {
		t.Fatalf("lollipop m=%d, want 12", g.M())
	}
	if !IsConnected(g) {
		t.Fatal("lollipop disconnected")
	}
	d, _ := Diameter(g)
	if d != 7 { // path of 6 extra vertices + 1 step into the clique
		t.Fatalf("lollipop diameter %d, want 7", d)
	}
}

func TestGeneratorPanics(t *testing.T) {
	cases := map[string]func(){
		"star-0":    func() { Star(0) },
		"path-0":    func() { Path(0) },
		"cycle-2":   func() { Cycle(2) },
		"grid-0":    func() { Grid(0, 3) },
		"cube-neg":  func() { Hypercube(-1) },
		"btree-0":   func() { BinaryTree(0) },
		"rtree-0":   func() { RandomTree(0, rng.New(1)) },
		"lolli-big": func() { Lollipop(3, 5) },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s should panic", name)
				}
			}()
			fn()
		})
	}
}

// Property: pairDecode is a bijection onto distinct valid pairs.
func TestQuickPairDecode(t *testing.T) {
	f := func(nRaw uint8, dirRaw bool) bool {
		n := int(nRaw)%12 + 2
		var total int64
		if dirRaw {
			total = int64(n) * int64(n-1)
		} else {
			total = int64(n) * int64(n-1) / 2
		}
		seen := make(map[[2]int]bool)
		for k := int64(0); k < total; k++ {
			u, v := pairDecode(n, k, dirRaw)
			if u < 0 || u >= n || v < 0 || v >= n || u == v {
				return false
			}
			if !dirRaw && u >= v {
				return false
			}
			if seen[[2]int{u, v}] {
				return false
			}
			seen[[2]int{u, v}] = true
		}
		return int64(len(seen)) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Gnp with p=0.5 has no duplicate edges and respects simplicity
// for random seeds.
func TestQuickGnpSimple(t *testing.T) {
	f := func(seed uint64, nRaw uint8, dir bool) bool {
		n := int(nRaw)%30 + 2
		g := Gnp(n, 0.5, dir, rng.New(seed))
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGnpSparse(b *testing.B) {
	r := rng.New(1)
	n := 10000
	p := math.Log(float64(n)) / float64(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Gnp(n, p, false, r)
	}
}

func BenchmarkCliqueDirected1024(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Clique(1024, true)
	}
}
