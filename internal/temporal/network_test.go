package temporal

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// pathNet builds the directed path 0→1→…, one label set per edge.
func pathNet(t *testing.T, lifetime int, labelSets [][]int) *Network {
	t.Helper()
	b := graph.NewBuilder(len(labelSets)+1, true)
	for v := 0; v < len(labelSets); v++ {
		b.AddEdge(v, v+1)
	}
	n, err := New(b.Build(), lifetime, LabelingFromSets(labelSets))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestLabelingFromSets(t *testing.T) {
	lab := LabelingFromSets([][]int{{3, 1}, {}, {7}})
	wantOff := []int32{0, 2, 2, 3}
	for i, w := range wantOff {
		if lab.Off[i] != w {
			t.Fatalf("Off = %v, want %v", lab.Off, wantOff)
		}
	}
	if len(lab.Labels) != 3 {
		t.Fatalf("Labels = %v", lab.Labels)
	}
}

func TestNewValidation(t *testing.T) {
	g := graph.Path(3) // 2 edges
	cases := []struct {
		name     string
		lifetime int
		lab      Labeling
		wantErr  string
	}{
		{"bad-lifetime", 0, LabelingFromSets([][]int{{1}, {1}}), "lifetime"},
		{"short-offsets", 5, Labeling{Off: []int32{0, 1}, Labels: []int32{1}}, "offsets"},
		{"uncovered", 5, Labeling{Off: []int32{0, 1, 1}, Labels: []int32{1, 2}}, "cover"},
		{"decreasing", 5, Labeling{Off: []int32{0, 2, 1}, Labels: []int32{1}}, "decrease"},
		{"label-low", 5, LabelingFromSets([][]int{{0}, {1}}), "outside"},
		{"label-high", 5, LabelingFromSets([][]int{{1}, {6}}), "outside"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(g, tc.lifetime, tc.lab)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
	// Valid case.
	n, err := New(g, 5, LabelingFromSets([][]int{{1, 3}, {2}}))
	if err != nil || n == nil {
		t.Fatalf("valid network rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad labeling should panic")
		}
	}()
	MustNew(graph.Path(2), 0, LabelingFromSets([][]int{{1}}))
}

func TestEdgeLabelsSorted(t *testing.T) {
	n := pathNet(t, 10, [][]int{{9, 2, 5}, {4}})
	got := n.EdgeLabels(0)
	want := []int32{2, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EdgeLabels(0) = %v, want %v", got, want)
		}
	}
	if n.LabelCount() != 4 {
		t.Fatalf("LabelCount = %d, want 4", n.LabelCount())
	}
	if n.Lifetime() != 10 {
		t.Fatalf("Lifetime = %d", n.Lifetime())
	}
}

func TestLabelInWindow(t *testing.T) {
	n := pathNet(t, 20, [][]int{{3, 8, 15}, {1}})
	cases := []struct {
		lo, hi int32
		want   int32
		ok     bool
	}{
		{0, 2, 0, false},
		{0, 3, 3, true},
		{3, 8, 8, true},  // (3,8] excludes 3
		{2, 20, 3, true}, // smallest in window
		{8, 14, 0, false},
		{8, 15, 15, true},
		{15, 20, 0, false},
	}
	for _, tc := range cases {
		got, ok := n.LabelIn(0, tc.lo, tc.hi)
		if ok != tc.ok || got != tc.want {
			t.Fatalf("LabelIn(0, %d, %d) = %d,%v, want %d,%v", tc.lo, tc.hi, got, ok, tc.want, tc.ok)
		}
		if n.HasLabelIn(0, tc.lo, tc.hi) != tc.ok {
			t.Fatalf("HasLabelIn(0, %d, %d) != %v", tc.lo, tc.hi, tc.ok)
		}
	}
}

// TestFirstLabelAfter asks for the next availability of an edge after t,
// LabelIn with the window closed at the lifetime.
func TestFirstLabelAfter(t *testing.T) {
	n := pathNet(t, 20, [][]int{{3, 8}, {1}})
	if l, ok := n.LabelIn(0, 0, 20); !ok || l != 3 {
		t.Fatalf("first label after 0 = %d,%v", l, ok)
	}
	if l, ok := n.LabelIn(0, 3, 20); !ok || l != 8 {
		t.Fatalf("first label after 3 = %d,%v", l, ok)
	}
	if _, ok := n.LabelIn(0, 8, 20); ok {
		t.Fatal("no label follows the last one")
	}
}

func TestTimeEdgesSortedByLabel(t *testing.T) {
	n := pathNet(t, 30, [][]int{{20, 5}, {10, 5, 25}})
	var labels []int32
	var count int
	n.TimeEdges(func(e, u, v int, l int32) {
		labels = append(labels, l)
		count++
		wu, wv := n.Graph().Endpoints(e)
		if wu != u || wv != v {
			t.Fatalf("TimeEdges endpoints mismatch for edge %d", e)
		}
	})
	if count != 5 {
		t.Fatalf("TimeEdges visited %d, want 5", count)
	}
	for i := 1; i < len(labels); i++ {
		if labels[i] < labels[i-1] {
			t.Fatalf("TimeEdges labels out of order: %v", labels)
		}
	}
}

func TestReverseDual(t *testing.T) {
	n := pathNet(t, 10, [][]int{{2}, {7}})
	r := n.Reverse()
	if _, ok := r.Graph().EdgeBetween(1, 0); !r.Graph().Directed() || !ok {
		t.Fatal("Reverse did not reverse arcs")
	}
	// Label 2 -> 10+1-2 = 9; label 7 -> 4.
	if got := r.EdgeLabels(0); len(got) != 1 || got[0] != 9 {
		t.Fatalf("reversed edge 0 labels = %v, want [9]", got)
	}
	if got := r.EdgeLabels(1); len(got) != 1 || got[0] != 4 {
		t.Fatalf("reversed edge 1 labels = %v, want [4]", got)
	}
	// Journey 0→2 exists in n (2 then 7); so 2→0 must exist in the dual.
	arr := r.EarliestArrivals(2)
	if arr[0] == Unreachable {
		t.Fatal("dual journey missing")
	}
}

func TestStringer(t *testing.T) {
	n := pathNet(t, 10, [][]int{{2}, {7}})
	s := n.String()
	if !strings.Contains(s, "lifetime=10") || !strings.Contains(s, "labels=2") {
		t.Fatalf("String() = %q", s)
	}
}

// TestNewBuildsVertexIndexLazily pins that New leaves the per-vertex CSR
// unbuilt: the word-scan kernels and the point scan never read it, so they
// leave temporal_index_builds_total{index="vertex"} unchanged, and the
// first frontier query builds it exactly once.
func TestNewBuildsVertexIndexLazily(t *testing.T) {
	g := graph.Grid(5, 5)
	before := obsBuildVertex.Value()
	net := MustNew(g, 30, uniformSets(g, 30, 2, rng.New(3)))
	SatisfiesTreachSerial(net, nil)
	ReachableSets(net, []int{0, 7})
	Diameter(net)
	net.ArrivalRowsBatch([]int32{3}, [][]int32{make([]int32, g.N())})
	net.EarliestArrivalTo(0, 24, 4)
	if d := obsBuildVertex.Value() - before; d != 0 {
		t.Fatalf("word-scan and point kernels built the vertex index %d times", d)
	}
	net.EarliestArrivals(0)
	net.EarliestArrivalsFromInto(5, 7, make([]int32, g.N()))
	if d := obsBuildVertex.Value() - before; d != 1 {
		t.Fatalf("frontier queries built the vertex index %d times, want 1", d)
	}
}
