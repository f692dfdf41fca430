package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
)

func TestReachabilityRateCliqueIsOne(t *testing.T) {
	// The clique satisfies Treach with any labels (direct edges).
	g := graph.Clique(10, false)
	rate, lo, hi := ReachabilityRate(context.Background(), g, 10, 1, 30, 1)
	if rate != 1 {
		t.Fatalf("clique rate = %v, want 1", rate)
	}
	if lo > 1 || hi != 1 {
		t.Fatalf("CI = [%v,%v]", lo, hi)
	}
}

func TestReachabilityRateStarSingleLabelLow(t *testing.T) {
	g := graph.Star(24)
	rate, _, _ := ReachabilityRate(context.Background(), g, 24, 1, 40, 2)
	if rate > 0.2 {
		t.Fatalf("star r=1 rate = %v, want near 0", rate)
	}
}

func TestReachabilityRateMonotoneInR(t *testing.T) {
	g := graph.Star(16)
	r1, _, _ := ReachabilityRate(context.Background(), g, 16, 1, 60, 3)
	r8, _, _ := ReachabilityRate(context.Background(), g, 16, 8, 60, 3)
	r32, _, _ := ReachabilityRate(context.Background(), g, 16, 32, 60, 3)
	if !(r1 <= r8+0.1 && r8 <= r32+0.1) {
		t.Fatalf("rates not (noisily) monotone: %v %v %v", r1, r8, r32)
	}
	if r32 < 0.95 {
		t.Fatalf("r=32 on K_{1,15} should almost surely reach: %v", r32)
	}
}

func TestEstimateRStarLogarithmic(t *testing.T) {
	// Theorem 6: r(n) = Θ(log n) for the star. For n=32, log2 n = 5; the
	// threshold should land in a small-constant multiple of that — and far
	// below n.
	g := graph.Star(32)
	r, ok := EstimateR(context.Background(), g, 32, WHPTarget(32), 60, 4, 256)
	if !ok {
		t.Fatal("EstimateR did not converge")
	}
	if r < 2 || r > 64 {
		t.Fatalf("r(32) = %d, expected a few·log n", r)
	}
}

func TestEstimateRCliqueIsOne(t *testing.T) {
	g := graph.Clique(12, false)
	r, ok := EstimateR(context.Background(), g, 12, WHPTarget(12), 30, 5, 8)
	if !ok || r != 1 {
		t.Fatalf("r(clique) = %d,%v, want 1", r, ok)
	}
}

func TestEstimateRUnreachableTarget(t *testing.T) {
	// A path with lifetime 1 can never satisfy Treach (needs 2 increasing
	// labels): EstimateR must hit rMax and report failure.
	g := graph.Path(4)
	r, ok := EstimateR(context.Background(), g, 1, 0.9, 10, 6, 4)
	if ok {
		t.Fatalf("EstimateR claimed success with r=%d", r)
	}
	if r != 4 {
		t.Fatalf("r = %d, want rMax", r)
	}
}

func TestEstimateRPanics(t *testing.T) {
	g := graph.Path(3)
	ctx := context.Background()
	assertPanics(t, []panicCase{
		{"target-0", func() { EstimateR(ctx, g, 3, 0, 5, 1, 4) }, "target must be in (0,1]"},
		{"target-2", func() { EstimateR(ctx, g, 3, 2, 5, 1, 4) }, "target must be in (0,1]"},
		{"rmax-0", func() { EstimateR(ctx, g, 3, 0.5, 5, 1, 0) }, "rMax >= 1"},
		// With no trials every probe is NaN, and NaN < target would end
		// the search at r = 1 as if it had succeeded.
		{"trials-0", func() { EstimateR(ctx, g, 3, 0.5, 0, 1, 4) }, "EstimateR needs trials >= 1"},
		{"trials-neg", func() { EstimateR(ctx, g, 3, 0.5, -5, 1, 4) }, "EstimateR needs trials >= 1"},
	})
}

// TestReachabilityRatePanics pins the input checks: the i.i.d. model the
// trials draw from would raise r < 1 to 1 silently, and zero trials would
// report a NaN rate.
func TestReachabilityRatePanics(t *testing.T) {
	g := graph.Path(3)
	ctx := context.Background()
	assertPanics(t, []panicCase{
		{"r-0", func() { ReachabilityRate(ctx, g, 3, 0, 5, 1) }, "r >= 1"},
		{"r-neg", func() { ReachabilityRate(ctx, g, 3, -3, 5, 1) }, "r >= 1"},
		{"trials-0", func() { ReachabilityRate(ctx, g, 3, 2, 0, 1) }, "ReachabilityRate needs trials >= 1"},
		{"trials-neg", func() { ReachabilityRate(ctx, g, 3, 2, -5, 1) }, "ReachabilityRate needs trials >= 1"},
		{"lifetime-0", func() { ReachabilityRate(ctx, g, 0, 2, 5, 1) }, "lifetime"},
	})
}

type panicCase struct {
	name string
	fn   func()
	want string // substring of the panic message
}

func assertPanics(t *testing.T, cases []panicCase) {
	t.Helper()
	for _, tc := range cases {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s should panic", tc.name)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
					t.Fatalf("%s panicked with %q, want it to mention %q", tc.name, msg, tc.want)
				}
			}()
			tc.fn()
		}()
	}
}

func TestWHPTarget(t *testing.T) {
	if got := WHPTarget(100); got != 0.99 {
		t.Fatalf("WHPTarget(100) = %v", got)
	}
	if got := WHPTarget(1); got != 1 {
		t.Fatalf("WHPTarget(1) = %v", got)
	}
}

func TestPoR(t *testing.T) {
	if got := PoR(10, 6, 20); got != 3 {
		t.Fatalf("PoR = %v, want 3", got)
	}
	if !math.IsNaN(PoR(10, 6, 0)) {
		t.Fatal("PoR with opt=0 should be NaN")
	}
}

func TestTheoremSevenR(t *testing.T) {
	// 2·d·ln n for d=2, n=100: 2·2·4.605 ≈ 18.42 → 19.
	if got := TheoremSevenR(100, 2); got != 19 {
		t.Fatalf("TheoremSevenR = %d, want 19", got)
	}
	if got := TheoremSevenR(1, 5); got != 1 {
		t.Fatalf("degenerate TheoremSevenR = %d", got)
	}
}

func TestTheoremEightPoRBound(t *testing.T) {
	// (2·d·ln n)·m/(n−1) for n=100, m=200, d=3.
	want := 2 * 3 * math.Log(100) * 200 / 99
	if got := TheoremEightPoRBound(100, 200, 3); math.Abs(got-want) > 1e-9 {
		t.Fatalf("bound = %v, want %v", got, want)
	}
}

func TestBoxCoverageFailureBound(t *testing.T) {
	// With r = 2·d·ln n labels, the bound must dip below 1/n per edge
	// (that is the Theorem 7 proof's driving inequality).
	n, d := 64, 4
	q := 4 * d
	r := TheoremSevenR(n, d)
	b := BoxCoverageFailureBound(q, d, r)
	if b > 1/float64(n) {
		t.Fatalf("failure bound %v not below 1/n", b)
	}
	// More labels shrink the bound.
	if BoxCoverageFailureBound(q, d, r+10) >= b {
		t.Fatal("bound not decreasing in r")
	}
	if BoxCoverageFailureBound(3, 0, 5) != 0 {
		t.Fatal("degenerate bound should be 0")
	}
}

func TestTheoremSevenRSatisfiesReachability(t *testing.T) {
	// End-to-end Theorem 7 check on a modest graph: r = 2·d·ln n uniform
	// labels per edge should give empirical Pr[Treach] ≈ 1.
	g := graph.Cycle(24) // d = 12
	d, _ := graph.Diameter(g)
	r := TheoremSevenR(g.N(), d)
	rate, _, _ := ReachabilityRate(context.Background(), g, g.N(), r, 30, 7)
	if rate < 0.95 {
		t.Fatalf("Theorem 7 r=%d gave rate %v on C_24", r, rate)
	}
}

func TestEstimateRCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A cancelled context must abort the search immediately and report
	// "not found" so callers discard the bracket.
	start := time.Now()
	r, ok := EstimateR(ctx, graph.Star(256), 256, 0.99, 1000, 1, 1<<20)
	if ok {
		t.Fatalf("cancelled search reported success (r=%d)", r)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled search still ran for %v", elapsed)
	}
}

// TestEstimateRCtxMatchesEstimateR: a search under a live, cancellable
// context that is never cancelled returns what it returns under
// context.Background.
func TestEstimateRCtxMatchesEstimateR(t *testing.T) {
	g := graph.Star(32)
	r1, ok1 := EstimateR(context.Background(), g, 32, WHPTarget(32), 20, 5, 512)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r2, ok2 := EstimateR(ctx, g, 32, WHPTarget(32), 20, 5, 512)
	if r1 != r2 || ok1 != ok2 {
		t.Fatalf("EstimateR (%d,%v) under Background, (%d,%v) under a live context", r1, ok1, r2, ok2)
	}
}
