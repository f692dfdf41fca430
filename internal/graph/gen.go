package graph

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/rng"
)

// FamilyOpts tunes the parameterized families of Family. The zero value
// selects every default.
type FamilyOpts struct {
	// P is the gnp edge probability; 0 means the connectivity-threshold
	// default 2·ln n/n.
	P float64
	// Deg is the regular degree; 0 means 4.
	Deg int
}

// deg is the regular degree Family builds.
func (o FamilyOpts) deg() int {
	if o.Deg == 0 {
		return 4
	}
	return o.Deg
}

var familyNames = []string{"clique", "dclique", "star", "path", "cycle", "grid",
	"hypercube", "bintree", "tree", "gnp", "regular"}

// FamilyNames lists the names Family accepts, in display order.
func FamilyNames() []string { return slices.Clone(familyNames) }

// CheckFamily returns why Family cannot build the named family on n
// vertices with o, or nil when it can: an unknown name, n < 1, a cycle
// below three vertices, a hypercube of 2³¹ vertices or more, a gnp p
// outside [0, 1], or a regular degree outside [0, n) or with n·deg odd.
func CheckFamily(name string, n int, o FamilyOpts) error {
	switch {
	case !slices.Contains(familyNames, name):
		return fmt.Errorf("graph: unknown family %q", name)
	case n < 1:
		return fmt.Errorf("graph: %s needs n >= 1, got %d", name, n)
	case name == "cycle" && n < 3:
		return fmt.Errorf("graph: cycle needs n >= 3, got %d", n)
	case name == "hypercube" && int64(n) >= 1<<31:
		return fmt.Errorf("graph: hypercube needs n < 2^31, got %d", n)
	case name == "gnp" && !(o.P >= 0 && o.P <= 1):
		return fmt.Errorf("graph: gnp needs p in [0,1], got %v", o.P)
	case name == "regular" && (o.deg() < 0 || o.deg() >= n):
		return fmt.Errorf("graph: regular needs 0 <= deg < n, got deg=%d n=%d", o.deg(), n)
	case name == "regular" && n*o.deg()%2 != 0:
		return fmt.Errorf("graph: regular needs n*deg even, got n=%d deg=%d", n, o.deg())
	}
	return nil
}

// Family builds the named graph family on (about) n vertices — the shared
// substrate vocabulary of cmd/gen, the experiment drivers and the
// differential test matrices. Randomized families (tree, gnp, regular)
// draw from r; deterministic families ignore it. It returns CheckFamily's
// error instead of building what a generator would reject.
func Family(name string, n int, o FamilyOpts, r *rng.Stream) (*Graph, error) {
	if err := CheckFamily(name, n, o); err != nil {
		return nil, err
	}
	switch name {
	case "clique":
		return Clique(n, false), nil
	case "dclique":
		return Clique(n, true), nil
	case "star":
		return Star(n), nil
	case "path":
		return Path(n), nil
	case "cycle":
		return Cycle(n), nil
	case "grid":
		return Grid((n+3)/4, 4), nil
	case "hypercube":
		return Hypercube(int(math.Floor(math.Log2(float64(n))))), nil
	case "bintree":
		return BinaryTree(n), nil
	case "tree":
		return RandomTree(n, r), nil
	case "gnp":
		p := o.P
		if p == 0 {
			p = 2 * math.Log(float64(n)) / float64(n)
		}
		return Gnp(n, p, false, r), nil
	default: // regular
		return RandomRegular(n, o.deg(), r), nil
	}
}

// Clique returns the complete graph K_n. When directed is true the result
// is the complete digraph with both arcs (u,v) and (v,u) for every pair —
// the network of Section 3 of the paper.
func Clique(n int, directed bool) *Graph {
	b := NewBuilder(n, directed)
	m := n * (n - 1) / 2
	if directed {
		m *= 2
	}
	b.from, b.to = make([]int32, 0, m), make([]int32, 0, m)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
			if directed {
				b.AddEdge(v, u)
			}
		}
	}
	return b.Build()
}

// Star returns the star K_{1,n-1} on n vertices with the center at vertex 0
// — the diameter-2 witness of Theorem 6.
func Star(n int) *Graph {
	if n < 1 {
		panic("graph: star needs at least one vertex")
	}
	b := NewBuilder(n, false)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.Build()
}

// Path returns the path on n vertices: 0-1-…-(n-1). Its diameter n-1 is the
// worst case for the box labeling of Theorem 7.
func Path(n int) *Graph {
	if n < 1 {
		panic("graph: path needs at least one vertex")
	}
	b := NewBuilder(n, false)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.Build()
}

// Cycle returns the cycle on n >= 3 vertices.
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: cycle needs at least three vertices")
	}
	b := NewBuilder(n, false)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	return b.Build()
}

// Grid returns the rows×cols king-free grid (4-neighborhood). Vertex (r,c)
// is r*cols + c.
func Grid(rows, cols int) *Graph {
	if rows < 1 || cols < 1 {
		panic("graph: grid needs positive dimensions")
	}
	b := NewBuilder(rows*cols, false)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// Hypercube returns the d-dimensional hypercube on 2^d vertices; vertices
// are adjacent iff their ids differ in exactly one bit. Its diameter d with
// n = 2^d makes it the "diameter = log n" family in the Theorem 7 sweeps.
func Hypercube(d int) *Graph {
	if d < 0 || d > 30 {
		panic("graph: hypercube dimension out of range")
	}
	n := 1 << uint(d)
	b := NewBuilder(n, false)
	for u := 0; u < n; u++ {
		for bit := 0; bit < d; bit++ {
			v := u ^ (1 << uint(bit))
			if u < v {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// BinaryTree returns the complete binary tree on n vertices: vertex i has
// children 2i+1 and 2i+2 where those exist. Diameter Θ(log n).
func BinaryTree(n int) *Graph {
	if n < 1 {
		panic("graph: binary tree needs at least one vertex")
	}
	b := NewBuilder(n, false)
	for v := 1; v < n; v++ {
		b.AddEdge((v-1)/2, v)
	}
	return b.Build()
}

// RandomTree returns a uniformly random labelled tree on n vertices, drawn
// via a random Prüfer sequence.
func RandomTree(n int, r *rng.Stream) *Graph {
	if n < 1 {
		panic("graph: random tree needs at least one vertex")
	}
	b := NewBuilder(n, false)
	if n == 1 {
		return b.Build()
	}
	if n == 2 {
		b.AddEdge(0, 1)
		return b.Build()
	}
	prufer := make([]int, n-2)
	deg := make([]int, n)
	for i := range deg {
		deg[i] = 1
	}
	for i := range prufer {
		prufer[i] = r.Intn(n)
		deg[prufer[i]]++
	}
	// Decode: repeatedly join the smallest leaf to the next code symbol.
	// A pointer-scan keeps the decode O(n log n)-free: classic linear scan.
	ptr := 0
	for deg[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range prufer {
		b.AddEdge(leaf, v)
		deg[v]--
		if deg[v] == 1 && v < ptr {
			leaf = v
		} else {
			ptr++
			for deg[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	// Join the final two leaves; one of them is vertex n-1.
	b.AddEdge(leaf, n-1)
	return b.Build()
}

// Gnp returns an Erdős–Rényi G(n,p) graph: every (ordered, when directed)
// pair becomes an edge independently with probability p. Sparse graphs are
// generated by geometric gap-skipping so the cost is O(n + m) rather than
// O(n²).
func Gnp(n int, p float64, directed bool, r *rng.Stream) *Graph {
	if p < 0 || p > 1 {
		panic("graph: Gnp probability out of [0,1]")
	}
	b := NewBuilder(n, directed)
	if p == 0 || n < 2 {
		return b.Build()
	}
	// Enumerate candidate pairs in a fixed linear order and jump between
	// successes with geometric gaps.
	var total int64
	if directed {
		total = int64(n) * int64(n-1)
	} else {
		total = int64(n) * int64(n-1) / 2
	}
	if p == 1 {
		for k := int64(0); k < total; k++ {
			u, v := pairDecode(n, k, directed)
			b.AddEdge(u, v)
		}
		return b.Build()
	}
	logq := math.Log1p(-p)
	k := int64(-1)
	for {
		// Geometric skip: next success after a gap of floor(log U / log(1-p)).
		u := r.Float64()
		gap := int64(math.Floor(math.Log(1-u) / logq))
		k += 1 + gap
		if k >= total {
			break
		}
		a, c := pairDecode(n, k, directed)
		b.AddEdge(a, c)
	}
	return b.Build()
}

// pairDecode maps a linear pair index k to the k-th vertex pair. Directed
// graphs enumerate ordered pairs row-major; undirected graphs enumerate
// unordered pairs u<v row-major. The undirected inverse uses the closed-form
// root of the row-offset quadratic with an integer fix-up, so decoding is
// O(1).
func pairDecode(n int, k int64, directed bool) (int, int) {
	if directed {
		u := int(k / int64(n-1))
		v := int(k % int64(n-1))
		if v >= u {
			v++
		}
		return u, v
	}
	// Rows: row u holds pairs (u, u+1..n-1), so the row offset is
	// S(u) = u·(n-1) - u·(u-1)/2 and we need the largest u with S(u) <= k.
	nf := float64(n)
	uf := math.Floor((2*nf - 1 - math.Sqrt((2*nf-1)*(2*nf-1)-8*float64(k))) / 2)
	u := int(uf)
	if u < 0 {
		u = 0
	}
	rowOff := func(u int64) int64 { return u*int64(n-1) - u*(u-1)/2 }
	for u > 0 && rowOff(int64(u)) > k {
		u--
	}
	for rowOff(int64(u+1)) <= k {
		u++
	}
	return u, u + 1 + int(k-rowOff(int64(u)))
}

// RandomRegular returns a random d-regular simple graph on n vertices via
// the configuration (pairing) model with restarts: d·n must be even and
// d < n. The expected number of restarts is e^{(d²-1)/4}, small for the
// modest d used in experiments.
func RandomRegular(n, d int, r *rng.Stream) *Graph {
	if d < 0 || d >= n {
		panic("graph: random regular needs 0 <= d < n")
	}
	if n*d%2 != 0 {
		panic("graph: random regular needs n*d even")
	}
	if d == 0 {
		return NewBuilder(n, false).Build()
	}
	stubs := make([]int, n*d)
	for {
		for i := range stubs {
			stubs[i] = i / d
		}
		r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		if g, ok := tryPairing(n, stubs); ok {
			return g
		}
	}
}

// tryPairing pairs consecutive stubs and rejects multigraphs.
func tryPairing(n int, stubs []int) (*Graph, bool) {
	type pair struct{ u, v int }
	seen := make(map[pair]struct{}, len(stubs)/2)
	b := NewBuilder(n, false)
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v {
			return nil, false
		}
		if u > v {
			u, v = v, u
		}
		if _, dup := seen[pair{u, v}]; dup {
			return nil, false
		}
		seen[pair{u, v}] = struct{}{}
		b.AddEdge(u, v)
	}
	return b.Build(), true
}

// Lollipop returns a clique on k vertices with a path of n-k further
// vertices attached to clique vertex 0 — a family with tunable diameter at
// fixed edge density, one of the substrates assign's
// TestBoxesClaim1AllFamilies checks Claim 1 on.
func Lollipop(n, k int) *Graph {
	if k < 1 || k > n {
		panic("graph: lollipop needs 1 <= k <= n")
	}
	b := NewBuilder(n, false)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			b.AddEdge(u, v)
		}
	}
	prev := 0
	for v := k; v < n; v++ {
		b.AddEdge(prev, v)
		prev = v
	}
	return b.Build()
}
