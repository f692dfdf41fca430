package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func bench(name string, ns, allocs float64) Benchmark {
	return Benchmark{Name: name, Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}}
}

func asMaps(bs ...Benchmark) (map[string]Benchmark, []string) {
	m := map[string]Benchmark{}
	var order []string
	for _, b := range bs {
		m[b.Name] = b
		order = append(order, b.Name)
	}
	return m, order
}

func TestDiffGates(t *testing.T) {
	base, order := asMaps(
		bench("KernelRelabel/x", 1000, 0),
		bench("KernelTreach", 2000, 0),
		bench("KernelGone", 500, 0),
		bench("SweepAdaptiveOverhead", 3000, 100),
	)
	fresh, _ := asMaps(
		bench("KernelRelabel/x", 1250, 0), // +25%: within the 30% limit
		bench("KernelTreach", 2000, 1),    // alloc regression
		// KernelGone missing: gate failure
		bench("SweepAdaptiveOverhead", 30000, 500), // not gated: never fails
		bench("KernelNew", 1, 0),                   // new: passes
	)
	_, failures := diff(base, fresh, order, 0.30, "Kernel")
	if len(failures) != 2 {
		t.Fatalf("want 2 failures, got %d: %v", len(failures), failures)
	}
	joined := strings.Join(failures, "\n")
	for _, want := range []string{"KernelTreach", "KernelGone"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("failures missing %s: %v", want, failures)
		}
	}
	if strings.Contains(joined, "Sweep") || strings.Contains(joined, "KernelRelabel/x") {
		t.Fatalf("unexpected failure recorded: %v", failures)
	}
}

func TestDiffNsRegression(t *testing.T) {
	base, order := asMaps(bench("KernelSlow", 1000, 2))
	fresh, _ := asMaps(bench("KernelSlow", 1400, 2))
	if _, failures := diff(base, fresh, order, 0.30, "Kernel"); len(failures) != 1 {
		t.Fatalf("want the +40%% ns/op regression flagged, got %v", failures)
	}
	// The same delta passes under a looser limit, and allocs staying flat
	// is fine.
	if _, failures := diff(base, fresh, order, 0.50, "Kernel"); len(failures) != 0 {
		t.Fatalf("want no failures at 50%% limit, got %v", failures)
	}
}

func TestDiffAllocImprovementPasses(t *testing.T) {
	base, order := asMaps(bench("KernelX", 1000, 5))
	fresh, _ := asMaps(bench("KernelX", 700, 0))
	if _, failures := diff(base, fresh, order, 0.30, "Kernel"); len(failures) != 0 {
		t.Fatalf("improvement flagged as regression: %v", failures)
	}
}

// TestDiffMultiPrefixGate exercises the comma-separated gate: Kernel* and
// Obs* both gated, Sweep* still informational.
func TestDiffMultiPrefixGate(t *testing.T) {
	base, order := asMaps(
		bench("KernelX", 1000, 0),
		bench("ObsCounterInc", 10, 0),
		bench("SweepAdaptiveOverhead", 3000, 100),
	)
	fresh, _ := asMaps(
		bench("KernelX", 1000, 0),
		bench("ObsCounterInc", 10, 1),              // alloc regression, gated
		bench("SweepAdaptiveOverhead", 30000, 500), // not gated
	)
	_, failures := diff(base, fresh, order, 0.30, "Kernel,Obs")
	if len(failures) != 1 || !strings.Contains(failures[0], "ObsCounterInc") {
		t.Fatalf("want only the Obs alloc regression, got %v", failures)
	}
	if !gatedBy("KernelX", "Kernel,Obs") || !gatedBy("ObsSpan", "Kernel,Obs") || gatedBy("SweepX", "Kernel,Obs") {
		t.Fatal("gatedBy prefix logic wrong")
	}
	if !gatedBy("QueryIndexHitFull", "Kernel,Obs,Query") || gatedBy("QueryIndexHitFull", "Kernel,Obs") {
		t.Fatal("Query gating wrong")
	}
	// The default gate covers the batched sweep engine but not the rebuild
	// oracles or the adaptive-estimator wall-clock benchmarks.
	const def = "Kernel,Obs,Query,SweepBatched"
	if !gatedBy("SweepBatchedGeometric", def) || !gatedBy("SweepBatchedIIDClique", def) {
		t.Fatal("SweepBatched gating wrong")
	}
	if gatedBy("SweepRebuildGeometric", def) || gatedBy("SweepAdaptiveOverhead", def) {
		t.Fatal("non-batched sweep benchmarks must stay ungated")
	}
}

// TestLoadFoldsRepeats: a -count N run lists each benchmark N times; load
// must fold them to the median ns/op and the largest allocs/op, keep the
// first-seen order, and leave single entries as they are.
func TestLoadFoldsRepeats(t *testing.T) {
	rep := Report{Benchmarks: []Benchmark{
		bench("KernelA", 300, 0),
		bench("KernelB", 50, 2),
		bench("KernelA", 100, 0),
		bench("KernelA", 200, 0),
		bench("KernelA", 250, 0),
		bench("KernelEven", 10, 0),
		bench("KernelEven", 30, 0),
		bench("KernelA", 900, 1), // one noisy, allocating run, listed last
	}}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	byName, order, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "KernelA,KernelB,KernelEven" {
		t.Fatalf("order %v", order)
	}
	for _, tc := range []struct {
		name       string
		ns, allocs float64
	}{
		{"KernelA", 250, 1}, // median of 100,200,250,300,900; max allocs
		{"KernelB", 50, 2},
		{"KernelEven", 20, 0}, // even count: mean of the middle two
	} {
		m := byName[tc.name].Metrics
		if m["ns/op"] != tc.ns || m["allocs/op"] != tc.allocs {
			t.Fatalf("%s folded to ns/op %v allocs/op %v, want %v and %v", tc.name, m["ns/op"], m["allocs/op"], tc.ns, tc.allocs)
		}
	}
	// The median, not the last run listed, meets the limit: KernelA's
	// noisy 900 ns/op run alone would fail a 30% limit against 250.
	base, baseOrder := asMaps(bench("KernelA", 250, 1))
	if _, failures := diff(base, byName, baseOrder, 0.30, "Kernel"); len(failures) != 0 {
		t.Fatalf("folded run flagged: %v", failures)
	}
}

// TestDiffProcsMismatch: a fresh entry run at another GOMAXPROCS than its
// baseline entry fails the run by name, gated or not, whatever its
// numbers; entries at equal procs are compared as usual.
func TestDiffProcsMismatch(t *testing.T) {
	at := func(b Benchmark, procs int) Benchmark {
		b.Procs = procs
		return b
	}
	base, order := asMaps(
		at(bench("KernelSame", 1000, 0), 1),
		at(bench("KernelFaster", 1000, 3), 1),
		at(bench("SweepAdaptiveOverhead", 3000, 100), 1),
	)
	fresh, _ := asMaps(
		at(bench("KernelSame", 1100, 0), 1),
		at(bench("KernelFaster", 500, 0), 2), // better numbers, wrong procs
		at(bench("SweepAdaptiveOverhead", 3000, 100), 2),
	)
	_, failures := diff(base, fresh, order, 0.30, "Kernel")
	if len(failures) != 2 {
		t.Fatalf("want 2 procs failures, got %v", failures)
	}
	for i, name := range []string{"KernelFaster", "SweepAdaptiveOverhead"} {
		if !strings.HasPrefix(failures[i], name+": ") || !strings.Contains(failures[i], "procs 2, baseline at procs 1") {
			t.Fatalf("failure %d = %q, want %s named with both procs", i, failures[i], name)
		}
	}
}
