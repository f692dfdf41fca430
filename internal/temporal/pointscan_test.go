package temporal_test

// The point scan (EarliestArrivalTo) reads an endpoint column that the
// first scan on a labeling fills. These tests pin when it is filled on
// fresh, relabeled and edge-relabeled networks, the scan's answers, and a
// first fill raced by concurrent scans.

import (
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// restrictedRows returns EarliestArrivalsFromInto's row for every source at
// the given start.
func restrictedRows(net *temporal.Network, start int32) [][]int32 {
	nv := net.Graph().N()
	rows := make([][]int32, nv)
	for s := range rows {
		rows[s] = make([]int32, nv)
		net.EarliestArrivalsFromInto(s, start, rows[s])
	}
	return rows
}

// checkEndsFill drives point scans on a labeling no scan has touched yet.
// Time-edge enumeration, the word scan and frontier rows must leave the
// endpoint column unfilled; the first point scan, one that stops on the
// first time edge, must fill it exactly once; and the scans of every
// (s, t) over several starts that follow must not fill it again, each
// answer equal to the restricted frontier row's entry.
func checkEndsFill(t *testing.T, name string, net *temporal.Network) {
	t.Helper()
	fills := temporal.EndsFills()
	var u, v int
	var l0 int32
	found := false
	net.TimeEdges(func(_, from, to int, l int32) {
		if !found {
			u, v, l0, found = from, to, l, true
		}
	})
	if !found {
		t.Fatalf("%s: no time edges", name)
	}
	temporal.SatisfiesTreachSerial(net, nil)
	a := int32(net.Lifetime())
	starts := []int32{1, 2, (a + 1) / 2, a}
	rows := make([][][]int32, len(starts))
	for i, start := range starts {
		rows[i] = restrictedRows(net, start)
	}
	if d := temporal.EndsFills() - fills; d != 0 {
		t.Fatalf("%s: queries other than point scans filled the endpoint column %d times, want 0", name, d)
	}

	if got := net.EarliestArrivalTo(u, v, 1); got != l0 {
		t.Fatalf("%s: early scan (%d,%d) = %d, want first label %d", name, u, v, got, l0)
	}
	if d := temporal.EndsFills() - fills; d != 1 {
		t.Fatalf("%s: first point scan filled %d columns, want 1", name, d)
	}
	for i, start := range starts {
		for s, row := range rows[i] {
			for dst, want := range row {
				if got := net.EarliestArrivalTo(s, dst, start); got != want {
					t.Fatalf("%s: (%d,%d) from %d = %d, frontier row %d", name, s, dst, start, got, want)
				}
			}
		}
	}
	if d := temporal.EndsFills() - fills; d != 1 {
		t.Fatalf("%s: point scans filled %d columns on one labeling, want 1", name, d)
	}
}

// TestPointScanEndsFill pins the fill after MustNew, after Relabel, and
// after RelabelEdges with a few and with most edges changed: each replaces
// the labeling, so each must drop the column for the next scan to refill.
func TestPointScanEndsFill(t *testing.T) {
	const lifetime = 13
	r := rng.New(29)
	dclique := graph.Clique(8, true)
	net := temporal.MustNew(dclique, lifetime, randomLabeling(dclique, lifetime, r))
	checkEndsFill(t, "new directed", net)
	if err := net.Relabel(randomLabeling(dclique, lifetime, r)); err != nil {
		t.Fatal(err)
	}
	checkEndsFill(t, "relabel", net)

	const nv = 12
	keys := randomKeySet(r, nv, 30)
	g := buildCanonical(nv, keys)
	unet := temporal.MustNew(g, lifetime, randomLabeling(g, lifetime, r))
	checkEndsFill(t, "new undirected", unet)
	for _, churn := range []struct {
		name           string
		remove, insert int
	}{{"few", 2, 2}, {"most", 20, 20}} {
		keys = nextKeySet(r, nv, keys, churn.remove, churn.insert)
		from, to := edgesFromKeys(nv, keys)
		lab := randomLabeling(buildCanonical(nv, keys), lifetime, r)
		if err := unet.RelabelEdges(from, to, lab); err != nil {
			t.Fatal(err)
		}
		checkEndsFill(t, "relabel edges "+churn.name, unet)
	}
}

// TestPointScanEndsConcurrentFill races the first fill: goroutines start
// scanning one fresh network together, every answer is checked against
// the frontier row, and the column must be filled exactly once.
func TestPointScanEndsConcurrentFill(t *testing.T) {
	const nv, lifetime = 24, 30
	g := graph.Grid(4, 6)
	net := temporal.MustNew(g, lifetime, randomLabeling(g, lifetime, rng.New(31)))
	starts := []int32{1, 5, 15}
	truth := make(map[int32][][]int32)
	for _, start := range starts {
		truth[start] = restrictedRows(net, start)
	}
	fills := temporal.EndsFills()
	ready := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-ready
			stream := rng.New(uint64(w) + 500)
			for i := 0; i < 300; i++ {
				s, v := stream.Intn(nv), stream.Intn(nv)
				start := starts[stream.Intn(len(starts))]
				if got, want := net.EarliestArrivalTo(s, v, start), truth[start][s][v]; got != want {
					t.Errorf("(%d,%d) from %d = %d, want %d", s, v, start, got, want)
					return
				}
			}
		}(w)
	}
	close(ready)
	wg.Wait()
	if d := temporal.EndsFills() - fills; d != 1 {
		t.Fatalf("concurrent scans filled the column %d times, want 1", d)
	}
}
