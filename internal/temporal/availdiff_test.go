package temporal_test

// Differential coverage for the availability-model generators: networks
// produced by every registered avail model — correlated Markov runs,
// time-varying p(t) schedules, the dynamic geometric scenario, and the
// i.i.d. laws — must keep the frontier kernel, the linear oracle and the
// bit-parallel reachability kernel in exact agreement, including the
// degenerate sizes n = 0 and 1. This file lives in package temporal_test so
// it can import internal/avail (which itself imports temporal) without a
// cycle; the in-package engine_test.go keeps the kernel-internal oracles.

import (
	"fmt"
	"testing"

	"repro/internal/avail"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// availNetworks builds the model × substrate differential matrix, including
// n = 0 and n = 1 substrates for every model.
func availNetworks(t testing.TB, seed uint64) []struct {
	name string
	net  *temporal.Network
} {
	var out []struct {
		name string
		net  *temporal.Network
	}
	add := func(name string, net *temporal.Network) {
		out = append(out, struct {
			name string
			net  *temporal.Network
		}{name, net})
	}
	substrates := []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.NewBuilder(0, false).Build()},
		{"single", graph.Clique(1, false)},
		{"clique12", graph.Clique(12, false)},
		{"dclique8", graph.Clique(8, true)},
		{"grid4x5", graph.Grid(4, 5)},
		{"path7", graph.Path(7)},
	}
	idx := uint64(0)
	for _, name := range avail.Names() {
		m, err := avail.Build(name, avail.Params{Lifetime: 18})
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		for _, sub := range substrates {
			idx++
			add(fmt.Sprintf("%s/%s", name, sub.name),
				avail.Network(m, sub.g, rng.NewStream(seed, idx)))
		}
	}
	// A denser geometric instance that takes the grid close-pair path.
	geo, err := avail.Build("geometric", avail.Params{
		Lifetime: 10,
		P:        map[string]float64{"radius": 0.12, "step": 0.08},
	})
	if err != nil {
		t.Fatal(err)
	}
	add("geometric/grid-path", avail.Network(geo, graph.Clique(48, false), rng.NewStream(seed, 1<<20)))
	return out
}

// TestAvailModelsEngineMatchesOracle runs the frontier kernel against the
// linear oracle from every source of every model × substrate instance.
func TestAvailModelsEngineMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, tn := range availNetworks(t, seed) {
			nv := tn.net.Graph().N()
			frontier := make([]int32, nv)
			linear := make([]int32, nv)
			for s := 0; s < nv; s++ {
				fr := tn.net.EarliestArrivalsInto(s, frontier)
				lr := tn.net.EarliestArrivalsLinearInto(s, linear)
				if fr != lr {
					t.Fatalf("%s: source %d: frontier reached %d, linear %d", tn.name, s, fr, lr)
				}
				for v := 0; v < nv; v++ {
					if frontier[v] != linear[v] {
						t.Fatalf("%s: source %d vertex %d: frontier=%d linear=%d",
							tn.name, s, v, frontier[v], linear[v])
					}
				}
			}
		}
	}
}

// TestAvailModelsBitParallelAgrees cross-checks the 64-way reachability
// words against scalar arrivals, and SatisfiesTreachSerial against the
// Treach answer those arrivals and a static BFS from every source give.
func TestAvailModelsBitParallelAgrees(t *testing.T) {
	for _, tn := range availNetworks(t, 7) {
		nv := tn.net.Graph().N()
		sources := make([]int, nv)
		for i := range sources {
			sources[i] = i
		}
		sets := temporal.ReachableSets(tn.net, sources)
		arr := make([]int32, nv)
		treach := true
		for s := 0; s < nv; s++ {
			tn.net.EarliestArrivalsInto(s, arr)
			dist := graph.BFS(tn.net.Graph(), s)
			for v := 0; v < nv; v++ {
				if sets[s].Contains(v) != (arr[v] != temporal.Unreachable) {
					t.Fatalf("%s: reach bit (%d,%d)=%v but arrival %d",
						tn.name, s, v, sets[s].Contains(v), arr[v])
				}
				if dist[v] >= 0 && arr[v] == temporal.Unreachable {
					treach = false
				}
			}
		}
		if got := temporal.SatisfiesTreachSerial(tn.net, nil); got != treach {
			t.Fatalf("%s: SatisfiesTreachSerial=%v, arrivals and static BFS give %v", tn.name, got, treach)
		}
	}
}

// TestAvailModelsDiameterMatchesOracle pins the word-scan diameter to
// the per-source linear-oracle fold on every model × substrate instance,
// from every source and from a duplicated sample.
func TestAvailModelsDiameterMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed)
		for _, tn := range availNetworks(t, seed) {
			nv := tn.net.Graph().N()
			all := make([]int, nv)
			for i := range all {
				all[i] = i
			}
			want := temporal.DiameterOracle(tn.net, all)
			for name, got := range map[string]temporal.DiameterResult{
				"Diameter":           temporal.Diameter(tn.net),
				"DiameterFromSerial": temporal.DiameterFromSerial(tn.net, all),
			} {
				if got != want {
					t.Fatalf("%s: %s = %+v, oracle = %+v", tn.name, name, got, want)
				}
			}
			if nv == 0 {
				continue
			}
			dup := make([]int, nv+5)
			for i := range dup {
				dup[i] = r.Intn(nv)
			}
			if got, want := temporal.DiameterFromSerial(tn.net, dup), temporal.DiameterOracle(tn.net, dup); got != want {
				t.Fatalf("%s: duplicated sources: DiameterFromSerial = %+v, oracle = %+v", tn.name, got, want)
			}
		}
	}
}

// FuzzAvailModelKernels lets the fuzzer drive the model choice, its
// parameters, the substrate size (including 0 and 1) and the seed,
// cross-checking frontier and linear kernels on the resulting network.
func FuzzAvailModelKernels(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(8), uint8(10), false)
	f.Add(uint64(2), uint8(4), uint8(0), uint8(3), true)
	f.Add(uint64(3), uint8(9), uint8(1), uint8(1), false)
	f.Add(uint64(4), uint8(5), uint8(13), uint8(20), true)
	f.Fuzz(func(t *testing.T, seed uint64, modelRaw, nRaw, lifeRaw uint8, directed bool) {
		names := avail.Names()
		name := names[int(modelRaw)%len(names)]
		n := int(nRaw) % 14 // 0 and 1 included
		lifetime := int(lifeRaw)%24 + 1
		r := rng.New(seed)
		// Fuzz the knobs too, inside each model's legal ranges.
		p := map[string]float64{}
		switch name {
		case "markov":
			pi := 0.05 + 0.6*r.Float64()
			runlen := 1 + 7*r.Float64()
			if pi/(1-pi) <= runlen { // keep alpha ≤ 1
				p["pi"], p["runlen"] = pi, runlen
			}
		case "geometric":
			p["radius"] = 0.05 + 0.4*r.Float64()
			p["step"] = 0.01 + 0.4*r.Float64()
		case "pt", "pt-ramp":
			p["p0"], p["p1"] = r.Float64(), r.Float64()
		case "pt-burst":
			p["start"], p["width"] = 0.9*r.Float64(), 0.05+0.9*r.Float64()
		}
		m, err := avail.Build(name, avail.Params{Lifetime: lifetime, P: p})
		if err != nil {
			t.Fatalf("Build(%q, %v): %v", name, p, err)
		}
		g := graph.Gnp(n, 0.4, directed, r)
		net := avail.Network(m, g, rng.NewStream(seed, 0))
		nv := net.Graph().N()
		if nv != n {
			t.Fatalf("%s: network on %d vertices, substrate had %d", name, nv, n)
		}
		frontier := make([]int32, nv)
		linear := make([]int32, nv)
		for s := 0; s < nv; s++ {
			fr := net.EarliestArrivalsInto(s, frontier)
			lr := net.EarliestArrivalsLinearInto(s, linear)
			if fr != lr {
				t.Fatalf("%s: source %d: frontier reached %d, linear %d", name, s, fr, lr)
			}
			for v := 0; v < nv; v++ {
				if frontier[v] != linear[v] {
					t.Fatalf("%s: source %d vertex %d: frontier=%d linear=%d",
						name, s, v, frontier[v], linear[v])
				}
			}
		}
	})
}
