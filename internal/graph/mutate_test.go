package graph

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// assertSame checks full structural equality between a mutated graph and a
// freshly built oracle: vertex/edge counts, edge arrays (identifier order),
// adjacency (neighbor order and edge ids), and Validate.
func assertSame(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.Directed() != want.Directed() {
		t.Fatalf("shape mismatch: got n=%d m=%d dir=%v, want n=%d m=%d dir=%v",
			got.N(), got.M(), got.Directed(), want.N(), want.M(), want.Directed())
	}
	if !slices.Equal(got.FromArray(), want.FromArray()) || !slices.Equal(got.ToArray(), want.ToArray()) {
		t.Fatalf("edge arrays differ:\n got from=%v to=%v\nwant from=%v to=%v",
			got.FromArray(), got.ToArray(), want.FromArray(), want.ToArray())
	}
	for u := 0; u < got.N(); u++ {
		if !slices.Equal(got.OutNeighbors(u), want.OutNeighbors(u)) {
			t.Fatalf("vertex %d out-neighbors: got %v want %v", u, got.OutNeighbors(u), want.OutNeighbors(u))
		}
		if !slices.Equal(got.OutEdges(u), want.OutEdges(u)) {
			t.Fatalf("vertex %d out-edges: got %v want %v", u, got.OutEdges(u), want.OutEdges(u))
		}
		if !slices.Equal(got.InNeighbors(u), want.InNeighbors(u)) {
			t.Fatalf("vertex %d in-neighbors: got %v want %v", u, got.InNeighbors(u), want.InNeighbors(u))
		}
		if !slices.Equal(got.InEdges(u), want.InEdges(u)) {
			t.Fatalf("vertex %d in-edges: got %v want %v", u, got.InEdges(u), want.InEdges(u))
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("mutated graph invalid: %v", err)
	}
}

func buildFrom(n int, directed bool, from, to []int32) *Graph {
	b := NewBuilder(n, directed)
	for i := range from {
		b.AddEdge(int(from[i]), int(to[i]))
	}
	return b.Build()
}

// randomEdgeSet draws a canonical (sorted, from<to, no duplicates) edge set.
func randomEdgeSet(rng *rand.Rand, n, m int) (from, to []int32) {
	seen := map[int64]bool{}
	keys := make([]int64, 0, m)
	for len(keys) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := int64(u)*int64(n) + int64(v)
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		from = append(from, int32(k/int64(n)))
		to = append(to, int32(k%int64(n)))
	}
	return from, to
}

func TestReplaceEdgesMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, directed := range []bool{false, true} {
		for _, n := range []int{0, 1, 2, 5, 17, 40} {
			g := buildFrom(n, directed, nil, nil)
			maxM := n * (n - 1) / 2
			for round := 0; round < 8; round++ {
				m := 0
				if maxM > 0 {
					m = rng.Intn(maxM + 1)
				}
				from, to := randomEdgeSet(rng, max(n, 1), min(m, maxM))
				if directed && rng.Intn(2) == 0 {
					// Directed graphs need not be canonical; flip some arcs.
					for i := range from {
						if rng.Intn(2) == 0 {
							from[i], to[i] = to[i], from[i]
						}
					}
				}
				if err := g.ReplaceEdges(from, to); err != nil {
					t.Fatalf("ReplaceEdges(n=%d dir=%v round=%d): %v", n, directed, round, err)
				}
				assertSame(t, g, buildFrom(n, directed, from, to))
			}
		}
	}
}

func TestReplaceEdgesRejectsBadInput(t *testing.T) {
	g := buildFrom(4, false, []int32{0}, []int32{1})
	cases := []struct{ from, to []int32 }{
		{[]int32{0, 1}, []int32{1}}, // length mismatch
		{[]int32{0}, []int32{4}},    // out of range
		{[]int32{-1}, []int32{2}},   // negative
		{[]int32{2}, []int32{2}},    // self-loop
	}
	for i, c := range cases {
		if err := g.ReplaceEdges(c.from, c.to); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Failed calls must leave the graph usable and unchanged in shape.
	assertSame(t, g, buildFrom(4, false, []int32{0}, []int32{1}))
}

func TestReplaceEdgesSteadyStateAllocs(t *testing.T) {
	// After warm-up at a stable edge-count ceiling, ReplaceEdges allocates
	// nothing — the property the per-trial scenario rebuild path relies on.
	// A shuffled list leaves adjacency unsorted, so it also covers the
	// sort's buffer, undirected and directed.
	from, to := randomEdgeSet(rand.New(rand.NewSource(3)), 64, 200)
	sfrom, sto := slices.Clone(from), slices.Clone(to)
	rand.New(rand.NewSource(4)).Shuffle(len(sfrom), func(i, j int) {
		sfrom[i], sfrom[j] = sfrom[j], sfrom[i]
		sto[i], sto[j] = sto[j], sto[i]
	})
	for _, tc := range []struct {
		name     string
		directed bool
		from, to []int32
	}{
		{"canonical", false, from, to},
		{"shuffled", false, sfrom, sto},
		{"shuffled-directed", true, sfrom, sto},
	} {
		g := buildFrom(64, tc.directed, nil, nil)
		if err := g.ReplaceEdges(tc.from, tc.to); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(50, func() {
			if err := g.ReplaceEdges(tc.from, tc.to); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("%s: ReplaceEdges steady state allocs/op = %v, want 0", tc.name, avg)
		}
		assertSame(t, g, buildFrom(64, tc.directed, tc.from, tc.to))
	}
}

// TestReplaceEdgesGrowthReallocatesRarely replaces the edges with 64
// ever longer lists: the CSR arrays grow with headroom, so only a
// logarithmic number of the calls allocate.
func TestReplaceEdgesGrowthReallocatesRarely(t *testing.T) {
	const steps, n, per = 64, 64, 30
	all, allTo := randomEdgeSet(rand.New(rand.NewSource(9)), n, steps*per)
	g := buildFrom(n, false, nil, nil)
	var before, after runtime.MemStats
	grew := 0
	for i := 1; i <= steps; i++ {
		from, to := all[:i*per], allTo[:i*per]
		runtime.ReadMemStats(&before)
		if err := g.ReplaceEdges(from, to); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if after.Mallocs != before.Mallocs {
			grew++
		}
		if g.M() != i*per {
			t.Fatalf("step %d: %d edges, want %d", i, g.M(), i*per)
		}
	}
	assertSame(t, g, buildFrom(n, false, all, allTo))
	// Without headroom every call allocates (64 of 64); with it, 12 of 64
	// on go1.24.
	if grew > steps/3 {
		t.Fatalf("%d of %d growing ReplaceEdges calls allocated, want a logarithmic number", grew, steps)
	}
}
