package avail

// Statistical conformance suite: every new availability model's empirical
// label frequencies are chi-square-tested against its analytic law at fixed
// seeds. Seeds are pinned, so each statistic is one deterministic number
// compared against a fixed critical value — the tests cannot flake; a
// failure means sampler and analytic law genuinely disagree.
//
// Where per-slot occupancies are correlated across slots (markov chains,
// geometric mobility), slots are tested individually against χ²(1) with a
// Bonferroni-corrected threshold instead of summing to χ²(a), which the
// correlation would invalidate.

import (
	"math"
	"testing"

	"repro/internal/assign"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/temporal"
)

// manyEdges returns a star with m edges — a cheap graph whose edges all
// draw independent label sets.
func manyEdges(m int) *graph.Graph { return graph.Star(m + 1) }

// matching returns the perfect matching on 2k vertices: edges (2i, 2i+1),
// whose geometric livenesses are independent across edges.
func matching(k int) *graph.Graph {
	b := graph.NewBuilder(2*k, false)
	for i := 0; i < k; i++ {
		b.AddEdge(2*i, 2*i+1)
	}
	return b.Build()
}

// slotCounts tallies, for each slot t, how many edges carry label t.
func slotCounts(lab temporal.Labeling, m, a int) []float64 {
	counts := make([]float64, a)
	for e := 0; e < m; e++ {
		for _, l := range lab.Labels[lab.Off[e]:lab.Off[e+1]] {
			counts[l-1]++
		}
	}
	return counts
}

// binomSlotStat is the 2-cell Pearson statistic of one Bin(n, p) slot —
// χ²(1) distributed under the null.
func binomSlotStat(obs, n, p float64) float64 {
	return stats.ChiSquare(
		[]float64{obs, n - obs},
		[]float64{n * p, n * (1 - p)},
	)
}

// TestMarkovSlotOccupancyConformance: at stationarity every slot of every
// edge is a label with probability pi, so the per-slot occupancy over E
// independent edges is Bin(E, pi). Slots of one edge are correlated, so
// each slot is tested against χ²(1) at the Bonferroni level 1 − 0.001/a.
func TestMarkovSlotOccupancyConformance(t *testing.T) {
	const edges = 4000
	a, pi, runlen := 16, 0.3, 4.0
	m, err := NewMarkov(a, pi, runlen)
	if err != nil {
		t.Fatal(err)
	}
	lab := draw(m, manyEdges(edges), rng.NewStream(0xA11, 1))
	counts := slotCounts(lab, edges, a)
	crit := stats.ChiSquareQuantile(1-0.001/float64(a), 1)
	for slot, obs := range counts {
		if stat := binomSlotStat(obs, edges, pi); stat > crit {
			t.Errorf("slot %d: occupancy %v of %d, chi-square %.2f > %.2f",
				slot+1, obs, edges, stat, crit)
		}
	}
}

// TestMarkovRunLengthConformance is the distribution-level check the
// expectation-level occupancy test cannot give: interior on-runs (preceded
// by an off slot, fully observable within the lifetime) are exactly
// Geometric(beta). Lengths are binned 1,…,K−1 with the tail folded at K.
func TestMarkovRunLengthConformance(t *testing.T) {
	const edges = 2000
	a, pi, runlen := 64, 0.3, 4.0
	const K = 8
	m, err := NewMarkov(a, pi, runlen)
	if err != nil {
		t.Fatal(err)
	}
	beta := m.beta
	lab := draw(m, manyEdges(edges), rng.NewStream(0xA11, 2))

	obs := make([]float64, K) // obs[l-1] = runs of length l, obs[K-1] = length ≥ K
	total := 0.0
	for e := 0; e < edges; e++ {
		on := make([]bool, a+1) // 1-based
		for _, l := range lab.Labels[lab.Off[e]:lab.Off[e+1]] {
			on[l] = true
		}
		for s := 2; s <= a-K+1; s++ {
			// A run starts at s when s−1 is off and s is on; runs starting
			// at s ≤ a−K+1 can be classified up to "≥ K" without censoring.
			if on[s-1] || !on[s] {
				continue
			}
			length := 1
			for s+length <= a && on[s+length] && length < K {
				length++
			}
			obs[length-1]++
			total++
		}
	}
	exp := make([]float64, K)
	for l := 1; l < K; l++ {
		exp[l-1] = total * beta * math.Pow(1-beta, float64(l-1))
	}
	exp[K-1] = total * math.Pow(1-beta, float64(K-1))
	stat := stats.ChiSquare(obs, exp)
	crit := stats.ChiSquareQuantile(0.999, float64(K-1))
	if stat > crit {
		t.Fatalf("run-length chi-square %.2f > %.2f (runs=%v, obs=%v)", stat, crit, total, obs)
	}
}

// TestTimeVaryingSlotConformance: pt slots are independent across both
// edges and slots, so the per-slot 2-cell Pearson terms sum to χ²(a)
// against the analytic schedule p(t).
func TestTimeVaryingSlotConformance(t *testing.T) {
	const edges = 3000
	a := 12
	ramp, err := NewRamp(a, 0.02, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	periodic, err := NewPeriodic(a, 0.15, 0.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	burst, err := NewBurst(a, 0.01, 0.5, 0.4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	schedules := []struct {
		name string
		m    TimeVarying
	}{{"ramp", ramp}, {"periodic", periodic}, {"burst", burst}}
	for si, sc := range schedules {
		name, m := sc.name, sc.m
		lab := draw(m, manyEdges(edges), rng.NewStream(0xA70, uint64(si+1)))
		counts := slotCounts(lab, edges, a)
		stat := 0.0
		for slot, obs := range counts {
			stat += binomSlotStat(obs, edges, m.probs[slot])
		}
		crit := stats.ChiSquareQuantile(0.999, float64(a))
		if stat > crit {
			t.Errorf("%s: chi-square %.2f > %.2f", name, stat, crit)
		}
	}
}

// TestGeometricPairLivenessConformance: two independent uniform torus
// points are within radius r with probability exactly π·r² (r < 0.5).
// Disjoint matching pairs are independent, so the slot-1 live count over
// many instances is Bin(N, π·r²).
func TestGeometricPairLivenessConformance(t *testing.T) {
	const (
		pairs     = 32
		instances = 300
		radius    = 0.2
	)
	m, err := NewGeometric(1, radius, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	g := matching(pairs)
	live := 0.0
	for i := 0; i < instances; i++ {
		lab := draw(m, g, rng.NewStream(0x6E0, uint64(i)))
		for e := 0; e < g.M(); e++ {
			if lab.Off[e+1] > lab.Off[e] {
				live++
			}
		}
	}
	n := float64(pairs * instances)
	p := math.Pi * radius * radius
	stat := binomSlotStat(live, n, p)
	crit := stats.ChiSquareQuantile(0.999, 1)
	if stat > crit {
		t.Fatalf("pair liveness %v of %v (p=%.4f): chi-square %.2f > %.2f", live, n, p, stat, crit)
	}
}

// TestGeometricStationarity: the wrapped random walk leaves the uniform law
// invariant, so after many steps the per-slot liveness of a matching pair is
// still π·r². Slots of one pair are correlated through the motion, so each
// slot is tested individually at the Bonferroni level.
func TestGeometricStationarity(t *testing.T) {
	const (
		pairs     = 64
		instances = 60
		radius    = 0.22
		a         = 10
	)
	m, err := NewGeometric(a, radius, 0.13)
	if err != nil {
		t.Fatal(err)
	}
	g := matching(pairs)
	counts := make([]float64, a)
	for i := 0; i < instances; i++ {
		lab := draw(m, g, rng.NewStream(0x6E1, uint64(i)))
		for slot, c := range slotCounts(lab, g.M(), a) {
			counts[slot] += c
		}
	}
	n := float64(pairs * instances)
	p := math.Pi * radius * radius
	crit := stats.ChiSquareQuantile(1-0.001/float64(a), 1)
	for slot, obs := range counts {
		if stat := binomSlotStat(obs, n, p); stat > crit {
			t.Errorf("slot %d: liveness %v of %v, chi-square %.2f > %.2f", slot+1, obs, n, stat, crit)
		}
	}
}

// TestGeometricInitialPositionsUniform bins the initial x and y coordinates
// of the walk into 10 cells each; across instances they are i.i.d. uniform.
func TestGeometricInitialPositionsUniform(t *testing.T) {
	const bins = 10
	const points = 20000
	obsX := make([]float64, bins)
	obsY := make([]float64, bins)
	w := newWalk(points, 0.05, rng.NewStream(0x6E2, 0))
	for i := 0; i < points; i++ {
		obsX[int(w.xs[i]*bins)]++
		obsY[int(w.ys[i]*bins)]++
	}
	exp := make([]float64, bins)
	for i := range exp {
		exp[i] = float64(points) / bins
	}
	crit := stats.ChiSquareQuantile(0.999, bins-1)
	if stat := stats.ChiSquare(obsX, exp); stat > crit {
		t.Errorf("x-coordinates: chi-square %.2f > %.2f", stat, crit)
	}
	if stat := stats.ChiSquare(obsY, exp); stat > crit {
		t.Errorf("y-coordinates: chi-square %.2f > %.2f", stat, crit)
	}
}

// TestIIDRegistryMatchesAssign pins the registry's i.i.d. models to
// package assign: their draws are bit-identical to
// assign.FromDistributionInto on the same law (same stream, same labels).
func TestIIDRegistryMatchesAssign(t *testing.T) {
	g := graph.Clique(9, false)
	for _, name := range []string{"uniform", "binom", "geom", "zipf"} {
		m, err := Build(name, Params{Lifetime: 15, R: 2})
		if err != nil {
			t.Fatal(err)
		}
		iid, ok := m.(IID)
		if !ok {
			t.Fatalf("%s: registry model is %T, want IID", name, m)
		}
		got := draw(m, g, rng.NewStream(3, 3))
		var want temporal.Labeling
		assign.FromDistributionInto(&want, g, iid.law, 2, rng.NewStream(3, 3))
		if len(got.Labels) != len(want.Labels) {
			t.Fatalf("%s: label counts differ", name)
		}
		for i := range got.Labels {
			if got.Labels[i] != want.Labels[i] {
				t.Fatalf("%s: labels diverge at %d", name, i)
			}
		}
	}
}
