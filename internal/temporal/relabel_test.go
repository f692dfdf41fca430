package temporal_test

// Differential coverage for the in-place Relabel path: a network relabeled
// with lab must be indistinguishable — arrivals, point scans,
// reachability, label queries, time-edge enumeration — from a network
// freshly built with New on the same lab. This is the correctness contract
// the batched trial engine (sim.BatchRunner) stands on.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/avail"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// randomLabeling draws a labeling with geometric-ish per-edge counts
// (including empty label sets) — the shape-changing workload Relabel must
// re-index, unlike the fixed-R i.i.d. case.
func randomLabeling(g *graph.Graph, lifetime int, r *rng.Stream) temporal.Labeling {
	sets := make([][]int, g.M())
	for e := range sets {
		k := 0
		for r.Bernoulli(0.7) && k < 6 {
			k++
		}
		for i := 0; i < k; i++ {
			sets[e] = append(sets[e], 1+r.Intn(lifetime))
		}
	}
	return temporal.LabelingFromSets(sets)
}

// assertNetworksEqual compares every observable surface of two networks on
// the same substrate. The point scans cover every (s, t) at starts around
// both ends of the lifetime; the first fills got's endpoint column, so a
// later relabel that failed to drop it shows on the next call.
func assertNetworksEqual(t *testing.T, name string, got, want *temporal.Network) {
	t.Helper()
	if got.LabelCount() != want.LabelCount() {
		t.Fatalf("%s: LabelCount %d, want %d", name, got.LabelCount(), want.LabelCount())
	}
	for e := 0; e < want.Graph().M(); e++ {
		ge, we := got.EdgeLabels(e), want.EdgeLabels(e)
		if len(ge) != len(we) {
			t.Fatalf("%s: edge %d has %d labels, want %d", name, e, len(ge), len(we))
		}
		for i := range ge {
			if ge[i] != we[i] {
				t.Fatalf("%s: edge %d label %d: %d want %d", name, e, i, ge[i], we[i])
			}
		}
	}
	type te struct {
		e, u, v int
		l       int32
	}
	var gl, wl []te
	got.TimeEdges(func(e, u, v int, l int32) { gl = append(gl, te{e, u, v, l}) })
	want.TimeEdges(func(e, u, v int, l int32) { wl = append(wl, te{e, u, v, l}) })
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d time edges, want %d", name, len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Fatalf("%s: time edge %d is %+v, want %+v", name, i, gl[i], wl[i])
		}
	}
	nv := want.Graph().N()
	ga, wa := make([]int32, nv), make([]int32, nv)
	for s := 0; s < nv; s++ {
		gr := got.EarliestArrivalsInto(s, ga)
		wr := want.EarliestArrivalsInto(s, wa)
		if gr != wr {
			t.Fatalf("%s: source %d reached %d, want %d", name, s, gr, wr)
		}
		for v := 0; v < nv; v++ {
			if ga[v] != wa[v] {
				t.Fatalf("%s: arrival (%d,%d) = %d, want %d", name, s, v, ga[v], wa[v])
			}
		}
	}
	a := int32(want.Lifetime())
	for _, start := range []int32{-1, 1, 2, (a + 1) / 2, a, a + 1} {
		for s := 0; s < nv; s++ {
			for v := 0; v < nv; v++ {
				if g, w := got.EarliestArrivalTo(s, v, start), want.EarliestArrivalTo(s, v, start); g != w {
					t.Fatalf("%s: point scan (%d,%d) from %d = %d, want %d", name, s, v, start, g, w)
				}
			}
		}
	}
	if gt, wt := temporal.SatisfiesTreachSerial(got, nil), temporal.SatisfiesTreachSerial(want, nil); gt != wt {
		t.Fatalf("%s: Treach %v, want %v", name, gt, wt)
	}
}

// TestRelabelMatchesNew drives one network through a sequence of
// relabelings — shrinking, growing, emptying — and pins it against fresh
// builds at every step, on substrates including n = 0 and 1.
func TestRelabelMatchesNew(t *testing.T) {
	substrates := []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.NewBuilder(0, false).Build()},
		{"single", graph.Clique(1, false)},
		{"path6", graph.Path(6)},
		{"clique9", graph.Clique(9, false)},
		{"dclique7", graph.Clique(7, true)},
		{"grid3x4", graph.Grid(3, 4)},
	}
	const lifetime = 13
	for _, sub := range substrates {
		t.Run(sub.name, func(t *testing.T) {
			net := temporal.MustNew(sub.g, lifetime,
				temporal.Labeling{Off: make([]int32, sub.g.M()+1)})
			r := rng.New(41)
			for step := 0; step < 8; step++ {
				lab := randomLabeling(sub.g, lifetime, r)
				if step == 5 { // force a shrink back to empty mid-sequence
					lab = temporal.Labeling{Off: make([]int32, sub.g.M()+1)}
				}
				if err := net.Relabel(lab); err != nil {
					t.Fatalf("step %d: Relabel: %v", step, err)
				}
				assertNetworksEqual(t, fmt.Sprintf("step %d", step),
					net, temporal.MustNew(sub.g, lifetime, lab))
			}
		})
	}
}

// TestRelabelRejectsBadLabelings pins the validation errors and that a
// failed Relabel leaves the network byte-for-byte unchanged.
func TestRelabelRejectsBadLabelings(t *testing.T) {
	g := graph.Clique(5, false)
	lab := randomLabeling(g, 9, rng.New(3))
	net := temporal.MustNew(g, 9, lab)
	oracle := temporal.MustNew(g, 9, lab)

	bad := []struct {
		name string
		lab  temporal.Labeling
	}{
		{"short offsets", temporal.Labeling{Off: make([]int32, g.M())}},
		{"uncovered labels", temporal.Labeling{Off: make([]int32, g.M()+1), Labels: []int32{1}}},
		{"decreasing offsets", temporal.Labeling{
			Off:    []int32{0, 2, 1, 2, 2, 2, 2, 2, 2, 2, 2}[:g.M()+1],
			Labels: []int32{1, 2},
		}},
		{"label out of range", temporal.LabelingFromSets([][]int{{10}, nil, nil, nil, nil, nil, nil, nil, nil, nil}[:g.M()])},
		{"label below one", temporal.LabelingFromSets([][]int{{0}, nil, nil, nil, nil, nil, nil, nil, nil, nil}[:g.M()])},
	}
	for _, tc := range bad {
		if err := net.Relabel(tc.lab); err == nil {
			t.Fatalf("%s: Relabel accepted a bad labeling", tc.name)
		}
		assertNetworksEqual(t, tc.name+" (after rejected relabel)", net, oracle)
	}
}

// TestRelabelSteadyStateAllocs pins the zero-allocation contract of the
// Resample + Relabel hot path, for a regular labeling (uniform: one label
// per edge, the per-edge time-edge build) and an irregular one (markov:
// varying counts, the flat scatter with its edge-start marks).
func TestRelabelSteadyStateAllocs(t *testing.T) {
	if temporal.RaceEnabled {
		t.Skip("race instrumentation allocates in pooled scratch paths")
	}
	for _, tc := range []struct {
		name  string
		model string
		p     avail.Params
	}{
		{"regular", "uniform", avail.Params{Lifetime: 24}},
		{"irregular", "markov", avail.Params{Lifetime: 24, P: map[string]float64{"pi": 0.1, "runlen": 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.Clique(24, true)
			m, err := avail.Build(tc.model, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			rs := m.(avail.Resampler)
			net := temporal.MustNew(g, m.Lifetime(), temporal.Labeling{Off: make([]int32, g.M()+1)})
			var lab temporal.Labeling
			stream := rng.New(9)
			// Warm up the buffers, then demand zero steady-state allocations.
			for i := 0; i < 3; i++ {
				rs.Resample(g, &lab, stream)
				if err := net.Relabel(lab); err != nil {
					t.Fatal(err)
				}
			}
			// The measured loop includes bit-parallel, diameter and frontier
			// queries so the lazy index rebuilds happen inside it.
			sources := []int{0, 5, 5, 23}
			arr := make([]int32, g.N())
			allocs := testing.AllocsPerRun(50, func() {
				rs.Resample(g, &lab, stream)
				if err := net.Relabel(lab); err != nil {
					t.Fatal(err)
				}
				temporal.SatisfiesTreachSerial(net, nil)
				temporal.DiameterFromSerial(net, sources)
				net.EarliestArrivalsInto(0, arr)
			})
			if allocs != 0 {
				t.Fatalf("steady-state Resample+Relabel+query allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestRelabelGrowthReallocatesRarely: the relabel buffers grow with
// headroom, as append does, so relabeling one network with ever larger
// labelings — each beating every earlier size — reallocates a logarithmic
// number of times, not at every new maximum.
func TestRelabelGrowthReallocatesRarely(t *testing.T) {
	if temporal.RaceEnabled {
		t.Skip("race instrumentation allocates in pooled scratch paths")
	}
	const steps, lifetime = 64, 64
	// 90 edges, so every labeling holds all 64 distinct labels and the
	// query scratch sized by them stays put.
	g := graph.Clique(10, true)
	net := temporal.MustNew(g, lifetime, temporal.Labeling{Off: make([]int32, g.M()+1)})
	arr := make([]int32, g.N())
	labs := make([]temporal.Labeling, steps)
	for i := range labs {
		// Labeling i gives every edge i+1 labels.
		sets := make([][]int, g.M())
		for e := range sets {
			for k := 0; k <= i; k++ {
				sets[e] = append(sets[e], 1+(e+k)%lifetime)
			}
		}
		labs[i] = temporal.LabelingFromSets(sets)
	}
	var before, after runtime.MemStats
	grew := 0
	for i, lab := range labs {
		runtime.ReadMemStats(&before)
		if err := net.Relabel(lab); err != nil {
			t.Fatal(err)
		}
		// The queries build the lazy time-edge and per-vertex indexes.
		temporal.SatisfiesTreachSerial(net, nil)
		net.EarliestArrivalsInto(0, arr)
		runtime.ReadMemStats(&after)
		if after.Mallocs != before.Mallocs {
			grew++
		}
		if net.LabelCount() != (i+1)*g.M() {
			t.Fatalf("labeling %d: %d labels, want %d", i, net.LabelCount(), (i+1)*g.M())
		}
	}
	// Without headroom every relabel reallocates (64 of 64); with it,
	// 14 of 64 on go1.24.
	if grew > steps/3 {
		t.Fatalf("%d of %d growing relabels allocated, want a logarithmic number", grew, steps)
	}
}

// TestResampleMatchesAssign pins the Resampler bit-identity contract for
// every registered model that claims the fast path: Resample into a dirty
// reused buffer must equal Assign from the same stream state.
func TestResampleMatchesAssign(t *testing.T) {
	g := graph.Grid(4, 5)
	for _, name := range avail.Names() {
		m, err := avail.Build(name, avail.Params{Lifetime: 17})
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		rs, ok := m.(avail.Resampler)
		if !avail.CanResample(m) {
			if scenario, _ := avail.Lookup(name); scenario.Scenario && ok {
				t.Fatalf("%s: scenario model implements Resampler but CanResample is false — dead fast path", name)
			}
			continue
		}
		var lab temporal.Labeling
		for trial := 0; trial < 5; trial++ {
			want := m.Assign(g, rng.NewStream(77, uint64(trial)))
			rs.Resample(g, &lab, rng.NewStream(77, uint64(trial)))
			if len(lab.Off) != len(want.Off) || len(lab.Labels) != len(want.Labels) {
				t.Fatalf("%s trial %d: shape (%d,%d) want (%d,%d)", name, trial,
					len(lab.Off), len(lab.Labels), len(want.Off), len(want.Labels))
			}
			for i := range want.Off {
				if lab.Off[i] != want.Off[i] {
					t.Fatalf("%s trial %d: Off[%d]=%d want %d", name, trial, i, lab.Off[i], want.Off[i])
				}
			}
			for i := range want.Labels {
				if lab.Labels[i] != want.Labels[i] {
					t.Fatalf("%s trial %d: Labels[%d]=%d want %d", name, trial, i, lab.Labels[i], want.Labels[i])
				}
			}
		}
	}
}

// TestTreachStaticMatchesSerial pins the cached-static Treach decision
// against the serial oracle across models, substrates (incl. n = 0/1) and
// relabels.
func TestTreachStaticMatchesSerial(t *testing.T) {
	substrates := []*graph.Graph{
		graph.NewBuilder(0, false).Build(),
		graph.Clique(1, false),
		graph.Path(9),
		graph.Clique(10, true),
		graph.Grid(3, 5),
	}
	for _, g := range substrates {
		sr := temporal.NewStaticReach(g)
		for _, name := range avail.Names() {
			m, err := avail.Build(name, avail.Params{Lifetime: 11})
			if err != nil {
				t.Fatal(err)
			}
			rs, ok := m.(avail.Resampler)
			if !ok {
				continue
			}
			net := temporal.MustNew(g, m.Lifetime(), temporal.Labeling{Off: make([]int32, g.M()+1)})
			var lab temporal.Labeling
			for trial := 0; trial < 6; trial++ {
				rs.Resample(g, &lab, rng.NewStream(21, uint64(trial)))
				if err := net.Relabel(lab); err != nil {
					t.Fatal(err)
				}
				got := temporal.SatisfiesTreachStatic(net, sr, nil)
				want := temporal.SatisfiesTreachSerial(net, nil)
				if got != want {
					t.Fatalf("%s on n=%d trial %d: cached-static Treach %v, serial %v",
						name, g.N(), trial, got, want)
				}
			}
		}
	}
}

// TestConcurrentQueriesAfterRelabel races the lazy index rebuild: after
// Relabel, and again after RelabelEdges, 8 goroutines query one network
// through the word scan (DiameterFromSerial, SatisfiesTreachSerial), the
// point scan (EarliestArrivalTo) and the frontier kernel
// (EarliestArrivalsInto), each starting with a different kind. Every
// answer must equal a fresh network's, and the double-checked rebuild must
// build the time-edge list and the per-vertex index exactly once each. The
// networks hold about 10k time edges, so a build lasts long enough for the
// other goroutines to queue behind it.
func TestConcurrentQueriesAfterRelabel(t *testing.T) {
	const nv, lifetime = 128, 40
	r := rng.New(77)
	clique := graph.Clique(nv, false)
	net := temporal.MustNew(clique, lifetime, randomLabeling(clique, lifetime, r))
	lab := randomLabeling(clique, lifetime, r)
	if err := net.Relabel(lab); err != nil {
		t.Fatal(err)
	}
	raceQueries(t, "Relabel", net, temporal.MustNew(clique, lifetime, lab))

	// RelabelEdges mutates the graph, so the network gets one of its own.
	own := graph.Gnp(nv, 0.6, false, r)
	net = temporal.MustNew(own, lifetime, randomLabeling(own, lifetime, r))
	next := graph.Gnp(nv, 0.6, false, r)
	lab = randomLabeling(next, lifetime, r)
	if err := net.RelabelEdges(next.FromArray(), next.ToArray(), lab); err != nil {
		t.Fatal(err)
	}
	raceQueries(t, "RelabelEdges", net, temporal.MustNew(next, lifetime, lab))
}

// raceQueries runs the concurrent queries of
// TestConcurrentQueriesAfterRelabel on net, whose indexes a relabel has
// just invalidated, against the answers of want, a fresh build of the
// same network.
func raceQueries(t *testing.T, name string, net, want *temporal.Network) {
	t.Helper()
	nv := want.Graph().N()
	all := make([]int, nv)
	for i := range all {
		all[i] = i
	}
	diam := temporal.DiameterFromSerial(want, all)
	treach := temporal.SatisfiesTreachSerial(want, nil)
	starts := []int32{1, int32(want.Lifetime() / 2)}
	rows := [][][]int32{restrictedRows(want, starts[0]), restrictedRows(want, starts[1])}

	te0, vx0 := temporal.IndexBuilds()
	ready := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			row := make([]int32, nv)
			<-ready
			for i := 0; i < 12; i++ {
				s := (7*w + i) % nv
				switch (w + i) % 4 {
				case 0:
					if got := temporal.DiameterFromSerial(net, all); got != diam {
						t.Errorf("%s: worker %d: DiameterFromSerial = %+v, fresh %+v", name, w, got, diam)
					}
				case 1:
					if got := temporal.SatisfiesTreachSerial(net, nil); got != treach {
						t.Errorf("%s: worker %d: SatisfiesTreachSerial = %v, fresh %v", name, w, got, treach)
					}
				case 2:
					k := i % len(starts)
					for v := w; v < nv; v += 9 {
						if got := net.EarliestArrivalTo(s, v, starts[k]); got != rows[k][s][v] {
							t.Errorf("%s: worker %d: EarliestArrivalTo(%d, %d, %d) = %d, fresh %d",
								name, w, s, v, starts[k], got, rows[k][s][v])
						}
					}
				case 3:
					net.EarliestArrivalsInto(s, row)
					for v, a := range row {
						if a != rows[0][s][v] {
							t.Errorf("%s: worker %d: EarliestArrivalsInto(%d)[%d] = %d, fresh %d",
								name, w, s, v, a, rows[0][s][v])
						}
					}
				}
			}
		}()
	}
	close(ready)
	wg.Wait()
	te1, vx1 := temporal.IndexBuilds()
	if te1-te0 != 1 || vx1-vx0 != 1 {
		t.Errorf("%s: concurrent queries built the time-edge list %d times and the vertex index %d times, want 1 and 1",
			name, te1-te0, vx1-vx0)
	}
}

// FuzzRelabel lets the fuzzer pick the substrate, lifetime and two label
// draws, relabels across them, and pins the result against a fresh build.
// The first labeling is pinned too, which also fills its endpoint column
// before the relabel has to drop it.
func FuzzRelabel(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(9), false)
	f.Add(uint64(2), uint8(0), uint8(1), true)
	f.Add(uint64(3), uint8(1), uint8(24), false)
	f.Add(uint64(4), uint8(11), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, lifeRaw uint8, directed bool) {
		n := int(nRaw) % 12
		lifetime := int(lifeRaw)%20 + 1
		r := rng.New(seed)
		g := graph.Gnp(n, 0.5, directed, r)
		first := randomLabeling(g, lifetime, r)
		second := randomLabeling(g, lifetime, r)
		net := temporal.MustNew(g, lifetime, first)
		assertNetworksEqual(t, "fuzz first", net, temporal.MustNew(g, lifetime, first))
		if err := net.Relabel(second); err != nil {
			t.Fatalf("Relabel: %v", err)
		}
		assertNetworksEqual(t, "fuzz", net, temporal.MustNew(g, lifetime, second))
	})
}
