package core

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/assign"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// urtClique builds the directed normalized uniform random temporal clique.
func urtClique(n int, seed uint64) *temporal.Network {
	g := graph.Clique(n, true)
	lab := assign.NormalizedURTN(g, rng.New(seed))
	return temporal.MustNew(g, n, lab)
}

func TestPlanWindowsPartitionBound(t *testing.T) {
	for _, n := range []int{16, 64, 256, 1024} {
		for _, cfg := range []ExpansionConfig{{}, {C1: 1, C2: 4}, {C1: 3, C2: 16, D: 3}} {
			p := PlanExpansion(n, cfg)
			if p.D < 0 {
				t.Fatalf("n=%d: plan D = %d", n, p.D)
			}
			// Windows must tile (0, Bound] exactly: forward 1..D+1, then
			// match, then reverse D+1..1.
			cursor := int32(0)
			advance := func(lo, hi int32, what string) {
				if lo != cursor {
					t.Fatalf("n=%d cfg=%+v: %s starts at %d, cursor %d", n, cfg, what, lo, cursor)
				}
				if hi <= lo {
					t.Fatalf("n=%d: %s empty window (%d,%d]", n, what, lo, hi)
				}
				cursor = hi
			}
			for i := 1; i <= p.D+1; i++ {
				lo, hi := p.ForwardWindow(i)
				advance(lo, hi, "forward")
			}
			lo, hi := p.MatchWindow()
			advance(lo, hi, "match")
			for i := p.D + 1; i >= 1; i-- {
				lo, hi := p.ReverseWindow(i)
				advance(lo, hi, "reverse")
			}
			if cursor != p.Bound {
				t.Fatalf("n=%d: windows end at %d, bound %d", n, cursor, p.Bound)
			}
		}
	}
}

func TestPlanWindowPanics(t *testing.T) {
	p := PlanExpansion(64, ExpansionConfig{})
	for name, fn := range map[string]func(){
		"fwd-0":    func() { p.ForwardWindow(0) },
		"fwd-high": func() { p.ForwardWindow(p.D + 2) },
		"rev-0":    func() { p.ReverseWindow(0) },
		"rev-high": func() { p.ReverseWindow(p.D + 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestExpansionSucceedsOnCliqueWHP(t *testing.T) {
	// With default constants, success should be near-certain at n = 256.
	const n = 256
	success := 0
	const trials = 25
	for seed := uint64(0); seed < trials; seed++ {
		net := urtClique(n, seed)
		res := Expansion(net, 0, 1, ExpansionConfig{})
		if res.Success {
			success++
			if err := res.Journey.Validate(net); err != nil {
				t.Fatalf("seed %d: invalid journey: %v", seed, err)
			}
			if j := res.Journey; len(j) == 0 || j[0].From != 0 || j[len(j)-1].To != 1 {
				t.Fatalf("seed %d: journey %v does not run 0→1", seed, j)
			}
			if res.Arrival > res.Plan.Bound {
				t.Fatalf("seed %d: arrival %d exceeds bound %d", seed, res.Arrival, res.Plan.Bound)
			}
		}
	}
	if success < trials-2 {
		t.Fatalf("expansion succeeded only %d/%d times on n=%d", success, trials, n)
	}
}

func TestExpansionArrivalLogarithmic(t *testing.T) {
	// Arrival must be ≤ Bound = Θ(log n) ≪ n: the headline separation
	// against the ~n/2 wait-for-direct-edge baseline.
	const n = 512
	net := urtClique(n, 7)
	res := Expansion(net, 3, 9, ExpansionConfig{})
	if !res.Success {
		t.Fatalf("expansion failed: %s", res.Reason)
	}
	if int(res.Arrival) > n/4 {
		t.Fatalf("arrival %d not much smaller than n=%d", res.Arrival, n)
	}
}

func TestExpansionWindowExceedsLifetime(t *testing.T) {
	// Tiny clique: 3W1+2DC2 > n, the documented failure mode.
	net := urtClique(8, 1)
	res := Expansion(net, 0, 1, ExpansionConfig{})
	if res.Success {
		t.Fatal("expansion should refuse when windows exceed the lifetime")
	}
	if res.Reason != "window exceeds lifetime" {
		t.Fatalf("reason = %q", res.Reason)
	}
}

func TestExpansionFrontierDeathOnSparseGraph(t *testing.T) {
	// A star has almost no expansion edges; with a large-enough lifetime
	// the process runs but the frontier dies or no match appears.
	g := graph.Star(64)
	lab := assign.Uniform(g, 4096, 1, rng.New(3))
	net := temporal.MustNew(g, 4096, lab)
	res := Expansion(net, 1, 2, ExpansionConfig{})
	if res.Success {
		t.Fatal("expansion through a star leaf pair should fail")
	}
	if !strings.Contains(res.Reason, "frontier died") && res.Reason != "no matching edge" {
		t.Fatalf("unexpected reason %q", res.Reason)
	}
}

func TestExpansionFrontierGrowth(t *testing.T) {
	// Frontier sizes should grow geometrically on the clique until ~√n.
	const n = 1024
	net := urtClique(n, 11)
	res := Expansion(net, 0, 1, ExpansionConfig{})
	if !res.Success {
		t.Fatalf("expansion failed: %s", res.Reason)
	}
	if len(res.ForwardSizes) != res.Plan.D+1 {
		t.Fatalf("forward sizes %v, want %d entries", res.ForwardSizes, res.Plan.D+1)
	}
	last := res.ForwardSizes[len(res.ForwardSizes)-1]
	if last < 16 { // √1024 = 32; allow slack
		t.Fatalf("final forward frontier %d too small: %v", last, res.ForwardSizes)
	}
}

func TestExpansionSamePanics(t *testing.T) {
	net := urtClique(16, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("s == t should panic")
		}
	}()
	Expansion(net, 3, 3, ExpansionConfig{})
}

func TestExpansionIntersectionAblation(t *testing.T) {
	// With AllowIntersection, success rate can only go up, and any journey
	// found via intersection must still validate.
	const n = 128
	for seed := uint64(0); seed < 10; seed++ {
		net := urtClique(n, seed)
		plain := Expansion(net, 0, 1, ExpansionConfig{})
		aug := Expansion(net, 0, 1, ExpansionConfig{AllowIntersection: true})
		if plain.Success && !aug.Success {
			t.Fatalf("seed %d: intersection ablation lost a success", seed)
		}
		if aug.Success {
			if err := aug.Journey.Validate(net); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

func TestExpansionOnUndirectedClique(t *testing.T) {
	// Remark 1: the undirected clique behaves the same.
	g := graph.Clique(256, false)
	lab := assign.NormalizedURTN(g, rng.New(5))
	net := temporal.MustNew(g, 256, lab)
	res := Expansion(net, 0, 1, ExpansionConfig{})
	if !res.Success {
		t.Fatalf("undirected expansion failed: %s", res.Reason)
	}
	if err := res.Journey.Validate(net); err != nil {
		t.Fatal(err)
	}
}

// Property: whenever Expansion succeeds, the journey validates, runs s→t,
// and its arrival is within the plan bound; δ(s,t) ≤ arrival.
func TestQuickExpansionSoundness(t *testing.T) {
	f := func(seed uint64, sRaw, tRaw uint8) bool {
		const n = 96
		s := int(sRaw) % n
		tt := int(tRaw) % n
		if s == tt {
			tt = (tt + 1) % n
		}
		net := urtClique(n, seed)
		res := Expansion(net, s, tt, ExpansionConfig{})
		if !res.Success {
			return true // failures are allowed; soundness is what matters
		}
		if err := res.Journey.Validate(net); err != nil {
			return false
		}
		if j := res.Journey; len(j) == 0 || j[0].From != s || j[len(j)-1].To != tt {
			return false
		}
		if res.Arrival > res.Plan.Bound {
			return false
		}
		arr := net.EarliestArrivals(s)
		return arr[tt] <= res.Arrival
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExpansionClique1024(b *testing.B) {
	net := urtClique(1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Expansion(net, i%1024, (i+1)%1024, ExpansionConfig{})
		_ = res
	}
}
