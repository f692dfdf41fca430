package sim

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
	"repro/internal/temporal"
)

// runAll runs trials 0 … count−1 on b uncancelled.
func runAll(t *testing.T, b *BatchRunner, count int, trial Trial) *Results {
	t.Helper()
	res, err := b.Run(context.Background(), 0, count, trial)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestRunAggregatesAllTrials(t *testing.T) {
	res := runAll(t, &BatchRunner{Seed: 1}, 100, func(trial int, _ *rng.Stream, _ Draw) Metrics {
		return Metrics{"x": float64(trial)}
	})
	s := res.Sample("x")
	if s.N() != 100 {
		t.Fatalf("N = %d, want 100", s.N())
	}
	if got := s.Mean(); got != 49.5 {
		t.Fatalf("Mean = %v, want 49.5", got)
	}
	if res.Trials() != 100 {
		t.Fatalf("Trials() = %d", res.Trials())
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	trial := func(i int, r *rng.Stream, _ Draw) Metrics {
		// Depends on the per-trial stream, so scheduling leaks would show.
		return Metrics{"v": r.Float64(), "w": float64(r.Intn(1000))}
	}
	base := runAll(t, &BatchRunner{Seed: 42, Workers: 1}, 64, trial)
	for _, workers := range []int{2, 4, 16} {
		got := runAll(t, &BatchRunner{Seed: 42, Workers: workers}, 64, trial)
		for _, name := range []string{"v", "w"} {
			// Bit-exact equality: same values in same trial order.
			if got.Sample(name).Mean() != base.Sample(name).Mean() ||
				got.Sample(name).StdDev() != base.Sample(name).StdDev() ||
				got.Sample(name).Min() != base.Sample(name).Min() {
				t.Fatalf("workers=%d: metric %s differs from serial run", workers, name)
			}
		}
	}
}

func TestRunSeedChangesResults(t *testing.T) {
	trial := func(i int, r *rng.Stream, _ Draw) Metrics {
		return Metrics{"v": r.Float64()}
	}
	a := runAll(t, &BatchRunner{Seed: 1}, 32, trial)
	b := runAll(t, &BatchRunner{Seed: 2}, 32, trial)
	if a.Sample("v").Mean() == b.Sample("v").Mean() {
		t.Fatal("different seeds produced identical results")
	}
}

func TestPartialMetrics(t *testing.T) {
	// Trials report "odd" only on odd indices.
	res := runAll(t, &BatchRunner{Seed: 3}, 10, func(i int, _ *rng.Stream, _ Draw) Metrics {
		m := Metrics{"always": 1}
		if i%2 == 1 {
			m["odd"] = float64(i)
		}
		return m
	})
	if res.Sample("always").N() != 10 {
		t.Fatalf("always N = %d", res.Sample("always").N())
	}
	odd := res.Sample("odd")
	if odd.N() != 5 {
		t.Fatalf("odd N = %d, want 5", odd.N())
	}
	if odd.Mean() != 5 { // (1+3+5+7+9)/5
		t.Fatalf("odd mean = %v, want 5", odd.Mean())
	}
}

func TestMissingMetricSafe(t *testing.T) {
	res := runAll(t, &BatchRunner{Seed: 1}, 3, func(i int, _ *rng.Stream, _ Draw) Metrics {
		return Metrics{"x": 1}
	})
	s := res.Sample("nope")
	if s.N() != 0 || !math.IsNaN(s.Mean()) {
		t.Fatal("missing metric should return empty sample")
	}
}

func TestNames(t *testing.T) {
	res := runAll(t, &BatchRunner{Seed: 1}, 2, func(i int, _ *rng.Stream, _ Draw) Metrics {
		return Metrics{"zeta": 1, "alpha": 2, "mid": 3}
	})
	names := res.Names()
	want := []string{"alpha", "mid", "zeta"}
	if len(names) != 3 {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
}

func TestRate(t *testing.T) {
	res := runAll(t, &BatchRunner{Seed: 1}, 10, func(i int, _ *rng.Stream, _ Draw) Metrics {
		v := 0.0
		if i < 7 {
			v = 1
		}
		return Metrics{"ok": v}
	})
	if got := res.Rate("ok"); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("Rate = %v, want 0.7", got)
	}
}

func TestZeroTrials(t *testing.T) {
	res := runAll(t, &BatchRunner{Seed: 1}, 0, func(i int, _ *rng.Stream, _ Draw) Metrics {
		t.Fatal("trial should not run")
		return nil
	})
	if res.Trials() != 0 || len(res.Names()) != 0 {
		t.Fatal("zero-trial run should be empty")
	}
}

func TestEachTrialRunsExactlyOnce(t *testing.T) {
	var calls [257]int32
	runAll(t, &BatchRunner{Seed: 5, Workers: 8}, 257, func(i int, _ *rng.Stream, _ Draw) Metrics {
		atomic.AddInt32(&calls[i], 1)
		return nil
	})
	for i, c := range calls {
		if c != 1 {
			t.Fatalf("trial %d ran %d times", i, c)
		}
	}
}

// TestNoModelDrawsNothing: a runner without a Model hands its trials a
// Draw that returns nil without touching the stream, ObserveFrom bodies a
// nil network, and neither touches the free list.
func TestNoModelDrawsNothing(t *testing.T) {
	free := new(FreeList)
	b := &BatchRunner{Seed: 11, Workers: 3, FreeList: free}
	h0, m0 := obsFreelistHits.Value(), obsFreelistMisses.Value()
	res := runAll(t, b, 20, func(g int, r *rng.Stream, draw Draw) Metrics {
		net := draw(r)
		ok := 0.0
		if net == nil && r.Float64() == rng.NewStream(11, uint64(g)).Float64() {
			ok = 1
		}
		return Metrics{"ok": ok}
	})
	if res.Rate("ok") != 1 {
		t.Fatalf("%v of trials drew a network or moved the stream", 1-res.Rate("ok"))
	}
	vals, err := b.ObserveFrom(context.Background(), 0, 20, func(_ int, net *temporal.Network, _ *rng.Stream) float64 {
		if net != nil {
			return 1
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != 0 {
			t.Fatalf("observation %d got a network", i)
		}
	}
	if h1, m1 := obsFreelistHits.Value(), obsFreelistMisses.Value(); h1 != h0 || m1 != m0 || len(free.free) != 0 {
		t.Fatalf("runner without a model touched the free list: %d hits, %d misses, %d idle",
			h1-h0, m1-m0, len(free.free))
	}
}

// TestRunContextCompletedMatchesRun: a run under a live, cancellable
// context that finishes uncancelled must be bit-identical to one under
// context.Background — the determinism contract the experiment service
// relies on for cache correctness.
func TestRunContextCompletedMatchesRun(t *testing.T) {
	trial := func(i int, r *rng.Stream, _ Draw) Metrics {
		return Metrics{"v": r.Float64(), "w": float64(r.Intn(1000))}
	}
	base := runAll(t, &BatchRunner{Seed: 42, Workers: 3}, 64, trial)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := (&BatchRunner{Seed: 42, Workers: 7}).Run(ctx, 0, 64, trial)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Trials() != base.Trials() {
		t.Fatalf("Trials %d != %d", got.Trials(), base.Trials())
	}
	for _, name := range []string{"v", "w"} {
		if got.Sample(name).Mean() != base.Sample(name).Mean() ||
			got.Sample(name).StdDev() != base.Sample(name).StdDev() ||
			got.Sample(name).Min() != base.Sample(name).Min() {
			t.Fatalf("metric %s differs between the two contexts", name)
		}
	}
}

func TestRunContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := int32(0)
	res, err := (&BatchRunner{Seed: 1}).Run(ctx, 0, 50, func(i int, _ *rng.Stream, _ Draw) Metrics {
		atomic.AddInt32(&ran, 1)
		return Metrics{"x": 1}
	})
	if err == nil {
		t.Fatal("want context error")
	}
	if atomic.LoadInt32(&ran) != 0 || res.Trials() != 0 {
		t.Fatalf("cancelled run executed %d trials, aggregated %d", ran, res.Trials())
	}
}

// TestRunContextCancelMidRun cancels after the first trial starts and checks
// workers stop claiming new trials while completed ones still aggregate.
func TestRunContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		<-started
		cancel()
		close(release)
	}()
	res, err := (&BatchRunner{Seed: 9, Workers: 2}).Run(ctx, 0, 1000, func(i int, _ *rng.Stream, _ Draw) Metrics {
		once.Do(func() { close(started) })
		<-release
		return Metrics{"x": 1}
	})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if res.Trials() == 0 || res.Trials() >= 1000 {
		t.Fatalf("completed %d trials, want some but not all", res.Trials())
	}
	if got := res.Sample("x").N(); got != res.Trials() {
		t.Fatalf("aggregated %d metrics across %d completed trials", got, res.Trials())
	}
}

func TestOnTrialCountsCompletedTrials(t *testing.T) {
	var n int32
	b := &BatchRunner{Seed: 4, Workers: 5, OnTrial: func() { atomic.AddInt32(&n, 1) }}
	runAll(t, b, 123, func(i int, _ *rng.Stream, _ Draw) Metrics { return Metrics{"x": 1} })
	if n != 123 {
		t.Fatalf("OnTrial fired %d times, want 123", n)
	}
}

// TestTrialPanicReachesCaller: a panic inside a trial must surface on the
// Run caller's goroutine (where a recover can contain it), not kill the
// process from a worker goroutine.
func TestTrialPanicReachesCaller(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("trial panic did not reach the caller")
		}
		if s, ok := r.(string); !ok || s != "trial blew up" {
			t.Fatalf("panic value mangled: %v", r)
		}
	}()
	(&BatchRunner{Seed: 1, Workers: 4}).Run(context.Background(), 0, 100, func(i int, _ *rng.Stream, _ Draw) Metrics {
		if i == 13 {
			panic("trial blew up")
		}
		return Metrics{"x": 1}
	})
}

// TestScalarsFromSplitGolden is the batch-resume contract the adaptive
// sweep engine extends trial sequences on: ObserveFrom over (0, k)
// followed by (k, m) must return the observations of (0, k+m) bit for bit.
func TestScalarsFromSplitGolden(t *testing.T) {
	obs := func(i int, _ *temporal.Network, r *rng.Stream) float64 {
		v := r.Float64() + float64(r.Intn(1000))
		if i%3 == 0 {
			v -= r.Float64()
		}
		return v
	}
	const k, m = 17, 46
	ctx := context.Background()
	for _, workers := range []int{1, 4, 0} {
		b := &BatchRunner{Seed: 1234, Workers: workers}
		full, err := b.ObserveFrom(ctx, 0, k+m, obs)
		if err != nil {
			t.Fatal(err)
		}
		head, err := b.ObserveFrom(ctx, 0, k, obs)
		if err != nil {
			t.Fatal(err)
		}
		tail, err := b.ObserveFrom(ctx, k, m, obs)
		if err != nil {
			t.Fatal(err)
		}
		split := append(head, tail...)
		if len(split) != len(full) {
			t.Fatalf("workers=%d: %d observations, want %d", workers, len(split), len(full))
		}
		for i := range full {
			if math.Float64bits(split[i]) != math.Float64bits(full[i]) {
				t.Fatalf("workers=%d: observation %d: %v != %v", workers, i, split[i], full[i])
			}
		}
	}
}

// TestScalarsFromStreamsMatchGlobalIndex pins that trial g of any batch
// sees rng.NewStream(seed, g) — the whole point of batch resumability.
func TestScalarsFromStreamsMatchGlobalIndex(t *testing.T) {
	var mu sync.Mutex
	got := map[int]float64{}
	b := &BatchRunner{Seed: 7, Workers: 3}
	vals, err := b.ObserveFrom(context.Background(), 100, 20, func(g int, _ *temporal.Network, r *rng.Stream) float64 {
		v := r.Float64()
		mu.Lock()
		got[g] = v
		mu.Unlock()
		return v
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 || len(vals) != 20 {
		t.Fatalf("ran %d trials returning %d observations, want 20", len(got), len(vals))
	}
	for g := 100; g < 120; g++ {
		want := rng.NewStream(7, uint64(g)).Float64()
		if got[g] != want || vals[g-100] != want {
			t.Fatalf("trial %d drew %v (observation %v), want canonical stream value %v", g, got[g], vals[g-100], want)
		}
	}
}

// TestNegativeTrialsPanics: a negative start or count is a caller bug.
func TestNegativeTrialsPanics(t *testing.T) {
	for _, r := range [][2]int{{-1, 5}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("range (%d, %d) should panic", r[0], r[1])
				}
			}()
			(&BatchRunner{Seed: 1}).Run(context.Background(), r[0], r[1], func(int, *rng.Stream, Draw) Metrics { return nil })
		}()
	}
}

func TestScalarsFromNegativePanics(t *testing.T) {
	for _, r := range [][2]int{{-1, 5}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("range (%d, %d) should panic", r[0], r[1])
				}
			}()
			(&BatchRunner{Seed: 1}).ObserveFrom(context.Background(), r[0], r[1], func(int, *temporal.Network, *rng.Stream) float64 { return 0 })
		}()
	}
}

func BenchmarkRunnerOverhead(b *testing.B) {
	r := &BatchRunner{Seed: 1}
	trial := func(i int, s *rng.Stream, _ Draw) Metrics { return Metrics{"x": s.Float64()} }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(context.Background(), 0, 100, trial)
	}
}
