package temporal

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestEarliestArrivalsDirectedChain(t *testing.T) {
	// 0 -(5)-> 1 -(3)-> 2 : the second label is too early, 2 unreachable.
	n := pathNet(t, 10, [][]int{{5}, {3}})
	arr := n.EarliestArrivals(0)
	if arr[0] != 0 || arr[1] != 5 || arr[2] != Unreachable {
		t.Fatalf("arr = %v", arr)
	}
	// 0 -(5)-> 1 -(7)-> 2 : reachable at 7.
	n = pathNet(t, 10, [][]int{{5}, {7}})
	arr = n.EarliestArrivals(0)
	if arr[2] != 7 {
		t.Fatalf("arr = %v", arr)
	}
}

func TestEqualLabelsDoNotChain(t *testing.T) {
	// Strictly increasing labels required: 4 then 4 must not chain.
	n := pathNet(t, 10, [][]int{{4}, {4}})
	arr := n.EarliestArrivals(0)
	if arr[1] != 4 {
		t.Fatalf("arr[1] = %d, want 4", arr[1])
	}
	if arr[2] != Unreachable {
		t.Fatalf("arr[2] = %d, want Unreachable (labels must strictly increase)", arr[2])
	}
}

func TestEarliestArrivalsPicksBestAmongLabels(t *testing.T) {
	// Multi-label edges: earliest feasible label wins.
	n := pathNet(t, 20, [][]int{{2, 9}, {5, 6, 18}})
	arr := n.EarliestArrivals(0)
	if arr[1] != 2 {
		t.Fatalf("arr[1] = %d, want 2", arr[1])
	}
	if arr[2] != 5 {
		t.Fatalf("arr[2] = %d, want 5", arr[2])
	}
}

func TestEarliestArrivalsUndirectedBothWays(t *testing.T) {
	// Undirected path 0-1-2, labels {3}, {6}: both directions work.
	b := graph.NewBuilder(3, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	n := MustNew(b.Build(), 10, LabelingFromSets([][]int{{3}, {6}}))
	arr := n.EarliestArrivals(0)
	if arr[2] != 6 {
		t.Fatalf("forward arr = %v", arr)
	}
	// Reverse direction: 2 -(6)-> 1 fails to continue (3 < 6): 0 unreachable.
	arr = n.EarliestArrivals(2)
	if arr[1] != 6 || arr[0] != Unreachable {
		t.Fatalf("backward arr = %v", arr)
	}
}

func TestDirectFlightVersusLayover(t *testing.T) {
	// Triangle: direct edge late (9), two-hop route earlier (2 then 4).
	b := graph.NewBuilder(3, false)
	e01 := b.AddEdge(0, 1)
	e12 := b.AddEdge(1, 2)
	e02 := b.AddEdge(0, 2)
	g := b.Build()
	sets := make([][]int, 3)
	sets[e01] = []int{2}
	sets[e12] = []int{4}
	sets[e02] = []int{9}
	n := MustNew(g, 10, LabelingFromSets(sets))
	arr := n.EarliestArrivals(0)
	if arr[2] != 4 {
		t.Fatalf("arr[2] = %d, want 4 (two-hop beats direct)", arr[2])
	}
}

func TestEarliestArrivalsIntoReusesScratch(t *testing.T) {
	n := pathNet(t, 10, [][]int{{1}, {2}})
	arr := make([]int32, 3)
	if got := n.EarliestArrivalsInto(0, arr); got != 3 {
		t.Fatalf("reached = %d, want 3", got)
	}
	// Second call from a different source must fully reset scratch.
	if got := n.EarliestArrivalsInto(2, arr); got != 1 {
		t.Fatalf("reached from sink = %d, want 1", got)
	}
	if arr[0] != Unreachable || arr[1] != Unreachable || arr[2] != 0 {
		t.Fatalf("arr = %v", arr)
	}
}

func TestForemostJourneyChain(t *testing.T) {
	n := pathNet(t, 20, [][]int{{2, 9}, {5, 6, 18}})
	j, ok := n.ForemostJourney(0, 2)
	if !ok {
		t.Fatal("journey not found")
	}
	if err := j.Validate(n); err != nil {
		t.Fatalf("invalid journey: %v", err)
	}
	if j.ArrivalTime() != 5 {
		t.Fatalf("arrival = %d, want 5", j.ArrivalTime())
	}
	if len(j) != 2 || j[0].From != 0 || j[1].To != 2 {
		t.Fatalf("journey = %v", j)
	}
}

func TestForemostJourneyUnreachable(t *testing.T) {
	n := pathNet(t, 10, [][]int{{4}, {4}})
	if _, ok := n.ForemostJourney(0, 2); ok {
		t.Fatal("journey should not exist")
	}
}

func TestForemostJourneyTrivial(t *testing.T) {
	n := pathNet(t, 10, [][]int{{4}, {5}})
	j, ok := n.ForemostJourney(1, 1)
	if !ok || len(j) != 0 || j.ArrivalTime() != 0 {
		t.Fatalf("trivial journey = %v,%v", j, ok)
	}
}

func TestForemostJourneyUndirectedTraversalAgainstStorage(t *testing.T) {
	// Edge stored as (0,1) but journey goes 1→0.
	b := graph.NewBuilder(2, false)
	b.AddEdge(0, 1)
	n := MustNew(b.Build(), 5, LabelingFromSets([][]int{{3}}))
	j, ok := n.ForemostJourney(1, 0)
	if !ok {
		t.Fatal("journey not found")
	}
	if err := j.Validate(n); err != nil {
		t.Fatalf("invalid journey: %v", err)
	}
	if j[0].From != 1 || j[0].To != 0 || j[0].Label != 3 {
		t.Fatalf("hop = %+v", j[0])
	}
}

func TestJourneyValidateRejectsBadJourneys(t *testing.T) {
	n := pathNet(t, 10, [][]int{{2}, {5}})
	cases := []struct {
		name string
		j    Journey
	}{
		{"bad-edge-id", Journey{{From: 0, To: 1, Edge: 99, Label: 2}}},
		{"wrong-endpoints", Journey{{From: 0, To: 2, Edge: 0, Label: 2}}},
		{"missing-label", Journey{{From: 0, To: 1, Edge: 0, Label: 3}}},
		{"broken-chain", Journey{
			{From: 0, To: 1, Edge: 0, Label: 2},
			{From: 0, To: 1, Edge: 0, Label: 2},
		}},
		{"non-increasing", Journey{
			{From: 0, To: 1, Edge: 0, Label: 2},
			{From: 1, To: 2, Edge: 1, Label: 2},
		}},
		{"directed-against-arc", Journey{{From: 1, To: 0, Edge: 0, Label: 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.j.Validate(n); err == nil {
				t.Fatal("Validate accepted a bad journey")
			}
		})
	}
	if err := (Journey{}).Validate(n); err != nil {
		t.Fatalf("empty journey should validate: %v", err)
	}
}

func TestJourneyString(t *testing.T) {
	j := Journey{
		{From: 0, To: 1, Edge: 0, Label: 2},
		{From: 1, To: 2, Edge: 1, Label: 5},
	}
	if got := j.String(); got != "0 -(2)-> 1 -(5)-> 2" {
		t.Fatalf("String() = %q", got)
	}
	if got := (Journey{}).String(); got != "(empty journey)" {
		t.Fatalf("empty String() = %q", got)
	}
}

// randomNetwork builds a random temporal network for property tests.
func randomNetwork(seed uint64, nMax int, directed bool) *Network {
	r := rng.New(seed)
	n := r.Intn(nMax-1) + 2
	g := graph.Gnp(n, 0.4, directed, r)
	lifetime := r.Intn(2*n) + 1
	sets := make([][]int, g.M())
	for e := range sets {
		cnt := r.Intn(3) // 0..2 labels per edge
		for k := 0; k < cnt; k++ {
			sets[e] = append(sets[e], 1+r.Intn(lifetime))
		}
	}
	return MustNew(g, lifetime, LabelingFromSets(sets))
}

// Property: the single-pass kernel agrees with the order-independent
// fixpoint reference on random networks, directed and undirected.
func TestQuickKernelAgreesWithFixpoint(t *testing.T) {
	f := func(seed uint64, directed bool) bool {
		net := randomNetwork(seed, 14, directed)
		for s := 0; s < net.Graph().N(); s++ {
			got := net.EarliestArrivals(s)
			want := net.earliestArrivalsFixpoint(s)
			for v := range got {
				if got[v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: every ForemostJourney validates and arrives exactly at δ(s,t).
func TestQuickForemostJourneyValidates(t *testing.T) {
	f := func(seed uint64, directed bool) bool {
		net := randomNetwork(seed, 12, directed)
		nv := net.Graph().N()
		for s := 0; s < nv; s++ {
			arr := net.EarliestArrivals(s)
			for v := 0; v < nv; v++ {
				j, ok := net.ForemostJourney(s, v)
				if ok != (arr[v] != Unreachable) {
					return false
				}
				if !ok {
					continue
				}
				if err := j.Validate(net); err != nil {
					return false
				}
				if v != s && j.ArrivalTime() != arr[v] {
					return false
				}
				if v != s && (j[0].From != s || j[len(j)-1].To != v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: time-reversal duality — t reachable from s in N iff s reachable
// from t in N.Reverse().
func TestQuickReverseDuality(t *testing.T) {
	f := func(seed uint64, directed bool) bool {
		net := randomNetwork(seed, 12, directed)
		rev := net.Reverse()
		nv := net.Graph().N()
		for s := 0; s < nv; s++ {
			fwd := net.EarliestArrivals(s)
			for v := 0; v < nv; v++ {
				back := rev.EarliestArrivals(v)
				if (fwd[v] == Unreachable) != (back[s] == Unreachable) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: arrival times are monotone under label addition — adding labels
// can only help (or leave unchanged) every δ(s,v).
func TestQuickMonotoneUnderMoreLabels(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(8) + 3
		g := graph.Gnp(n, 0.5, false, r)
		lifetime := n + 2
		base := make([][]int, g.M())
		richer := make([][]int, g.M())
		for e := range base {
			if r.Bernoulli(0.7) {
				l := 1 + r.Intn(lifetime)
				base[e] = append(base[e], l)
				richer[e] = append(richer[e], l)
			}
			// richer gets an extra label.
			richer[e] = append(richer[e], 1+r.Intn(lifetime))
		}
		nb := MustNew(g, lifetime, LabelingFromSets(base))
		nr := MustNew(g, lifetime, LabelingFromSets(richer))
		for s := 0; s < n; s++ {
			ab := nb.EarliestArrivals(s)
			ar := nr.EarliestArrivals(s)
			for v := range ab {
				if ar[v] > ab[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
