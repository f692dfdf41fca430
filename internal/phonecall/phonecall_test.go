package phonecall

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestPushInformsClique(t *testing.T) {
	g := graph.Clique(128, false)
	r := rng.New(1)
	res := Push(g, 0, 0, r)
	if !res.All {
		t.Fatalf("push did not finish: %+v", res)
	}
	// Frieze–Grimmett: ~log2 n + ln n ≈ 7 + 4.85 ≈ 12 rounds; allow 3x.
	if res.Rounds > 36 {
		t.Fatalf("push took %d rounds on K_128", res.Rounds)
	}
	if res.Transmissions < 127 {
		t.Fatalf("transmissions %d below n-1", res.Transmissions)
	}
}

func TestPushPullFasterOrEqual(t *testing.T) {
	g := graph.Clique(256, false)
	var pushRounds, pullRounds float64
	const trials = 10
	for seed := uint64(0); seed < trials; seed++ {
		pushRounds += float64(Push(g, 0, 0, rng.New(seed)).Rounds)
		pullRounds += float64(PushPull(g, 0, 0, rng.New(seed)).Rounds)
	}
	if pullRounds > pushRounds {
		t.Fatalf("push-pull (%v) slower than push (%v) on average", pullRounds/trials, pushRounds/trials)
	}
}

func TestPushRoundsLogarithmic(t *testing.T) {
	// Rounds should grow like log n: quadrupling n adds ~2·(1+1/ln2)
	// rounds, far from quadrupling them.
	r64, r1024 := 0.0, 0.0
	const trials = 10
	for seed := uint64(0); seed < trials; seed++ {
		r64 += float64(Push(graph.Clique(64, false), 0, 0, rng.New(seed)).Rounds)
		r1024 += float64(Push(graph.Clique(1024, false), 0, 0, rng.New(seed)).Rounds)
	}
	r64 /= trials
	r1024 /= trials
	if r1024 > 2.5*r64 {
		t.Fatalf("rounds scale superlogarithmically: %v -> %v", r64, r1024)
	}
}

func TestPushMaxRoundsCutoff(t *testing.T) {
	g := graph.Clique(64, false)
	res := Push(g, 0, 2, rng.New(3))
	if res.All {
		t.Fatal("2 rounds cannot inform K_64")
	}
	if res.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Rounds)
	}
	if res.Informed < 2 || res.Informed > 5 {
		t.Fatalf("informed = %d after 2 push rounds", res.Informed)
	}
}

func TestPushOnPathWorksSlowly(t *testing.T) {
	// On a path, push is a (slowish) directed random walk of the frontier;
	// it must still complete within the default bound.
	g := graph.Path(16)
	res := Push(g, 0, 0, rng.New(4))
	if !res.All {
		t.Fatalf("push did not cover the path: %+v", res)
	}
	if res.Rounds < 15 {
		t.Fatalf("path cannot be covered faster than its length: %d", res.Rounds)
	}
}

func TestPushIsolatedVertex(t *testing.T) {
	b := graph.NewBuilder(3, false)
	b.AddEdge(0, 1)
	res := Push(b.Build(), 0, 10, rng.New(5))
	if res.All {
		t.Fatal("isolated vertex cannot be informed")
	}
	if res.Informed != 2 {
		t.Fatalf("informed = %d", res.Informed)
	}
}

func TestEmptyGraph(t *testing.T) {
	res := Push(graph.NewBuilder(0, false).Build(), 0, 5, rng.New(1))
	if !res.All {
		t.Fatal("empty graph should be trivially done")
	}
}

func TestSingleVertex(t *testing.T) {
	res := Push(graph.NewBuilder(1, false).Build(), 0, 5, rng.New(1))
	if !res.All || res.Rounds != 0 || res.Transmissions != 0 {
		t.Fatalf("singleton: %+v", res)
	}
}

func TestPushPullTransmissionAdvantage(t *testing.T) {
	// Karp et al.: push-pull needs Θ(n log log n) transmissions vs push's
	// Θ(n log n). At n=1024 the gap must be visible (ratio well below 1).
	g := graph.Clique(1024, false)
	var push, pull float64
	const trials = 5
	for seed := uint64(0); seed < trials; seed++ {
		push += float64(Push(g, 0, 0, rng.New(seed)).Transmissions)
		pull += float64(PushPull(g, 0, 0, rng.New(seed)).Transmissions)
	}
	if pull >= push {
		t.Fatalf("push-pull transmissions (%v) not below push (%v)", pull/trials, push/trials)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	g := graph.Clique(64, false)
	a := Push(g, 0, 0, rng.New(9))
	b := Push(g, 0, 0, rng.New(9))
	if a.Rounds != b.Rounds || a.Transmissions != b.Transmissions {
		t.Fatal("same seed gave different results")
	}
}

// Property: push monotonically informs (informed set only grows), final
// count within [1, n], and rounds ≤ maxRounds.
func TestQuickPushInvariants(t *testing.T) {
	f := func(seed uint64, nRaw uint8, pull bool) bool {
		n := int(nRaw)%30 + 1
		g := graph.Gnp(n, 0.3, false, rng.New(seed))
		var res Result
		if pull {
			res = PushPull(g, 0, 50, rng.New(seed+1))
		} else {
			res = Push(g, 0, 50, rng.New(seed+1))
		}
		if res.Informed < 1 || res.Informed > n {
			return false
		}
		if res.Rounds > 50 {
			return false
		}
		if res.All != (res.Informed == n) {
			return false
		}
		// Reachability sanity: informed count cannot exceed the static
		// component of the source.
		dist := graph.BFS(g, 0)
		reach := 0
		for _, d := range dist {
			if d >= 0 {
				reach++
			}
		}
		return res.Informed <= reach
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushClique1024(b *testing.B) {
	g := graph.Clique(1024, false)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Push(g, i%1024, 0, r)
	}
}
