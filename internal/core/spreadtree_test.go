package core

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/assign"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// informed counts the tree's informed vertices, the source included.
func informed(tr SpreadTree) int {
	c := 0
	for _, a := range tr.InformedAt {
		if a != temporal.Unreachable {
			c++
		}
	}
	return c
}

// rootPath follows v's Parent and Edge links up to the source and returns
// the informing chain source→…→v as a journey, or nil when v was never
// informed.
func rootPath(tr SpreadTree, v int) temporal.Journey {
	if tr.InformedAt[v] == temporal.Unreachable {
		return nil
	}
	var rev temporal.Journey
	for cur := v; cur != tr.Source; cur = int(tr.Parent[cur]) {
		rev = append(rev, temporal.Hop{From: int(tr.Parent[cur]), To: cur, Edge: int(tr.Edge[cur]), Label: tr.InformedAt[cur]})
	}
	slices.Reverse(rev)
	return rev
}

func TestSpreadTreeHandExample(t *testing.T) {
	// 0 -(2)-> 1 -(5)-> 2 (directed chain).
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	net := temporal.MustNew(b.Build(), 10, temporal.LabelingFromSets([][]int{{2}, {5}}))
	tr := BuildSpreadTree(net, 0)
	if informed(tr) != 3 {
		t.Fatalf("informed = %d", informed(tr))
	}
	if tr.Parent[1] != 0 || tr.Parent[2] != 1 || tr.Parent[0] != -1 {
		t.Fatalf("parents = %v", tr.Parent)
	}
	if tr.HopDepth[0] != 0 || tr.HopDepth[1] != 1 || tr.HopDepth[2] != 2 || tr.MaxDepth() != 2 {
		t.Fatalf("depths = %v", tr.HopDepth)
	}
	j := rootPath(tr, 2)
	if err := j.Validate(net); err != nil {
		t.Fatal(err)
	}
	if j.ArrivalTime() != 5 || len(j) != 2 || j[0].From != 0 || j[1].To != 2 {
		t.Fatalf("path = %v", j)
	}
}

func TestSpreadTreeUninformed(t *testing.T) {
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	net := temporal.MustNew(b.Build(), 10, temporal.LabelingFromSets([][]int{{4}, {4}}))
	tr := BuildSpreadTree(net, 0)
	if informed(tr) != 2 {
		t.Fatalf("informed = %d", informed(tr))
	}
	if tr.HopDepth[2] != -1 || tr.Edge[2] != -1 || tr.Parent[2] != -1 {
		t.Fatal("uninformed vertex should have sentinel fields")
	}
}

func TestSpreadTreeSourcePath(t *testing.T) {
	net := urtClique(32, 3)
	tr := BuildSpreadTree(net, 5)
	if tr.InformedAt[5] != 0 || tr.HopDepth[5] != 0 || tr.Parent[5] != -1 || tr.Edge[5] != -1 {
		t.Fatalf("source fields: at %d depth %d parent %d edge %d",
			tr.InformedAt[5], tr.HopDepth[5], tr.Parent[5], tr.Edge[5])
	}
}

func TestSpreadTreeCliqueDepthLogarithmic(t *testing.T) {
	// Depth of the foremost broadcast tree on the URT clique is O(log n):
	// each hop label strictly increases and the whole tree finishes by
	// ~γ·ln n, so depth ≤ completion time; check a stronger practical
	// bound.
	net := urtClique(512, 7)
	tr := BuildSpreadTree(net, 0)
	if informed(tr) != 512 {
		t.Skip("rare incomplete spread; skip rather than flake")
	}
	if tr.MaxDepth() > 25 {
		t.Fatalf("tree depth %d too large for n=512", tr.MaxDepth())
	}
}

// Property: the spread tree agrees with Spread (same informed times),
// exactly the informed vertices have a hop depth, and every root path
// validates as a journey arriving exactly at InformedAt[v].
func TestQuickSpreadTreeConsistent(t *testing.T) {
	f := func(seed uint64, directed bool) bool {
		r := rng.New(seed)
		n := r.Intn(16) + 3
		g := graph.Gnp(n, 0.4, directed, r)
		lifetime := n + 4
		lab := assign.Uniform(g, lifetime, 1, r)
		net := temporal.MustNew(g, lifetime, lab)
		src := int(seed % uint64(n))
		tr := BuildSpreadTree(net, src)
		sp := Spread(net, src)
		total := 0
		for v := 0; v < n; v++ {
			if tr.InformedAt[v] != sp.InformedAt[v] {
				return false
			}
			if tr.InformedAt[v] == temporal.Unreachable {
				continue
			}
			total++
			if tr.HopDepth[v] < 0 {
				return false
			}
			j := rootPath(tr, v)
			if j == nil && v != src {
				return false
			}
			if err := j.Validate(net); err != nil {
				return false
			}
			if v != src && j.ArrivalTime() != tr.InformedAt[v] {
				return false
			}
		}
		depths := 0
		for _, d := range tr.HopDepth {
			if d >= 0 {
				depths++
			}
		}
		return depths == total && total == informed(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
