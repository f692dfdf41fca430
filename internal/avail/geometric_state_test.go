package avail

// Differential coverage for the incremental geometric engine: a reused
// geomState must reproduce, bit for bit, trial after trial, what the
// original map-accumulating generator (generateMap, kept as the oracle)
// produces from the same stream state — same canonical edge list, same
// labeling, same RNG consumption. This is the contract that lets
// sim.BatchRunner route mobility trials through ScenarioState +
// temporal.RelabelEdges instead of rebuilding networks.

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/rng"
)

// checkTrial runs one state trial and the oracle generator on identical
// streams and compares their outputs and where they leave the stream.
func checkTrial(t *testing.T, name string, st ScenarioState, m Geometric, n int, seed, trial uint64) {
	t.Helper()
	ss, ref := rng.NewStream(seed, trial), rng.NewStream(seed, trial)
	from, to, lab := st.Resample(ss)
	og, olab := m.generateMap(n, ref)
	if a, b := ss.Uint64(), ref.Uint64(); a != b {
		t.Fatalf("%s: stream after the trial reads %#x, oracle's %#x", name, a, b)
	}
	if len(from) != og.M() {
		t.Fatalf("%s: %d edges, oracle %d", name, len(from), og.M())
	}
	if !slices.Equal(from, og.FromArray()) || !slices.Equal(to, og.ToArray()) {
		t.Fatalf("%s: edge arrays differ from oracle", name)
	}
	if !slices.Equal(lab.Off, olab.Off) || !slices.Equal(lab.Labels, olab.Labels) {
		t.Fatalf("%s: labeling differs from oracle", name)
	}
	// Canonical order is part of the ScenarioState contract.
	prev := int64(-1)
	for i := range from {
		if from[i] >= to[i] {
			t.Fatalf("%s: edge %d (%d,%d) not canonical", name, i, from[i], to[i])
		}
		k := int64(from[i])*int64(n) + int64(to[i])
		if k <= prev {
			t.Fatalf("%s: edge order breaks at %d", name, i)
		}
		prev = k
	}
}

// TestGeometricStateMatchesGenerate reuses one state across many trials —
// grid mode, brute-force mode, degenerate sizes, auto and explicit radii —
// and pins every trial against a fresh oracle run.
func TestGeometricStateMatchesGenerate(t *testing.T) {
	cases := []struct {
		name         string
		a            int
		radius, step float64
		n            int
		cells        int // grid side the radius gives; 0 = brute force
	}{
		{"grid-auto", 12, 0, 0.05, 64, 4}, // auto radius, grid path
		{"grid-explicit", 9, 0.11, 0.07, 60, 9},
		{"brute-dense", 7, 0.3, 0.1, 40, 0},      // cells=3 < 4 → brute force
		{"brute-small-n", 10, 0.11, 0.05, 12, 0}, // n < 16 → brute force
		{"n0", 6, 0.2, 0.05, 0, 0},
		{"n1", 6, 0.2, 0.05, 1, 0},
		{"a1", 1, 0.15, 0.05, 48, 6}, // single slot, no advances
		// Finer grids hold mostly empty cells: the occupied-cell scan
		// must still find every close pair across cell borders and the
		// torus seam.
		{"grid-4", 8, 0.24, 0.05, 64, 4},
		{"grid-10", 8, 0.1, 0.05, 100, 10},
		{"grid-20", 8, 0.05, 0.05, 100, 20},
		{"grid-33", 8, 0.03, 0.05, 100, 33},
		{"grid-52", 8, 0.019, 0.05, 100, 40},        // ⌊1/r⌋ = 52, capped at 4·⌈√n⌉
		{"grid-52-slow", 16, 0.019, 0.004, 160, 52}, // steps below a cell side
		// The sweep workload's radius search (n = 100, lifetime 100) at
		// both ends of its bracket and at the crossing, where a point
		// keeps its cell with probability ≈ 0.17 per slot.
		{"sweep-r0.01", 100, 0.01, 0.05, 100, 40},
		{"sweep-r0.041", 100, 0.041, 0.05, 100, 24},
		{"sweep-r0.1", 100, 0.1, 0.05, 100, 10},
		{"e17-quick", 32, 0, 0.05, 48, 4}, // E17's quick configuration
		{"tiny-radius", 8, 1e-6, 0.05, 100, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewGeometric(tc.a, tc.radius, tc.step)
			if err != nil {
				t.Fatal(err)
			}
			st := m.NewScenarioState(tc.n)
			if st == nil {
				t.Fatalf("NewScenarioState(%d) = nil", tc.n)
			}
			if got := st.(*geomState).cells; got != tc.cells {
				t.Fatalf("grid side %d, want %d", got, tc.cells)
			}
			for trial := uint64(0); trial < 6; trial++ {
				checkTrial(t, tc.name, st, m, tc.n, 99, trial)
			}
		})
	}
}

// TestGeometricStateEpochWrap runs trials across the wrap of the grid's
// epoch counter, where every cell's stale stamp must stop reading as
// current.
func TestGeometricStateEpochWrap(t *testing.T) {
	m, err := NewGeometric(6, 0.1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	st := m.NewScenarioState(100)
	gs := st.(*geomState)
	checkTrial(t, "before-wrap", st, m, 100, 5, 0)
	gs.epoch = math.MaxUint32 - 2
	for trial := uint64(1); trial < 4; trial++ {
		checkTrial(t, "across-wrap", st, m, 100, 5, trial)
	}
	if gs.epoch > 100 {
		t.Fatalf("epoch %d did not wrap", gs.epoch)
	}
}

// FuzzGeometricState compares a reused state with the oracle generator
// over several trials, for any size, lifetime, radius (0 = automatic),
// step and seed.
func FuzzGeometricState(f *testing.F) {
	f.Add(uint8(100), uint8(24), 0.041, 0.05, uint64(1))
	f.Add(uint8(48), uint8(24), 0.0, 0.05, uint64(2))
	f.Add(uint8(64), uint8(4), 1e-6, 0.05, uint64(3))
	f.Add(uint8(40), uint8(7), 0.3, 0.1, uint64(4))
	f.Add(uint8(160), uint8(16), 0.019, 0.004, uint64(5))
	f.Add(uint8(64), uint8(8), 0.24, 0.5, uint64(6))
	f.Add(uint8(1), uint8(1), 0.2, 0.05, uint64(7))
	f.Fuzz(func(t *testing.T, n8, a8 uint8, radius, step float64, seed uint64) {
		n, a := int(n8)%161, 1+int(a8)%24
		m, err := NewGeometric(a, radius, step)
		if err != nil {
			t.Skip()
		}
		st := m.NewScenarioState(n)
		for trial := uint64(0); trial < 3; trial++ {
			checkTrial(t, "fuzz", st, m, n, seed, trial)
		}
	})
}

// TestGeometricTinyRadiusMemory: the grid side is bounded by the point
// count, not only by 1/r. Sized at ⌊1/r⌋², the grid for r = 1e-3 is a
// million cells, tens of megabytes per state and per Generate slot, and
// the one for r = 1e-6 is 10¹² cells, an allocation failure Go cannot
// recover from.
func TestGeometricTinyRadiusMemory(t *testing.T) {
	m, err := NewGeometric(4, 1e-3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	const n, limit = 64, 1 << 20
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if b := allocated(func() { m.NewScenarioState(n) }); b > limit {
		t.Errorf("NewScenarioState allocates %d bytes at r = 1e-3, want at most %d", b, limit)
	}
	if b := allocated(func() { m.Generate(n, rng.NewStream(1, 0)) }); b > limit {
		t.Errorf("Generate allocates %d bytes at r = 1e-3, want at most %d", b, limit)
	}
}

// TestWrapStepMatchesWrap01 pins the engine's two-comparison wrap to the
// reference walk's math.Mod wrap, bit for bit, over the whole range a
// coordinate in [0,1] reaches after one step of at most 0.5.
func TestWrapStepMatchesWrap01(t *testing.T) {
	const ulp = 1.0 / (1 << 53)
	xs := []float64{
		-0.5, -0.25, -ulp, -5e-324, math.Copysign(0, -1), 0, 5e-324, ulp,
		0.5, 1 - ulp, 1, 1 + 2*ulp, 1.25, 1.5,
	}
	r := rng.New(41)
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		if i%1000 == 0 {
			x = 1 // the one value above [0,1) that wrap01 can return
		}
		xs = append(xs, x+(2*r.Float64()-1)*0.5)
	}
	for _, x := range xs {
		if got, want := wrapStep(x), wrap01(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("wrapStep(%v) = %v, wrap01 gives %v", x, got, want)
		}
	}
}

// TestGeometricStateSortPathMatchesOracle pins the comparison-sort variant
// of the engine: above countingMaxKeys pair keys the state carries no
// counting cursors and groups via a full event sort instead. n = 1100 is
// the smallest grid size past the gate that keeps the oracle cheap.
func TestGeometricStateSortPathMatchesOracle(t *testing.T) {
	const n = 1100
	if n*n <= countingMaxKeys {
		t.Fatal("test size no longer exceeds countingMaxKeys; raise n")
	}
	m, err := NewGeometric(2, 0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	st := m.NewScenarioState(n)
	if st == nil {
		t.Fatalf("NewScenarioState(%d) = nil", n)
	}
	if st.(*geomState).counts != nil {
		t.Fatal("state past the gate still carries counting cursors")
	}
	for trial := uint64(0); trial < 3; trial++ {
		checkTrial(t, "sort-path", st, m, n, 31, trial)
	}
}

// TestGeometricStateStreamConsumption: after a Resample the stream must sit
// exactly where the oracle leaves it, so trial i+1 sees identical draws no
// matter which engine ran trial i. (Each walk consumes 2n·a uniforms.)
func TestGeometricStateStreamConsumption(t *testing.T) {
	m, err := NewGeometric(8, 0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	st := m.NewScenarioState(n)
	s1 := rng.NewStream(7, 1)
	s2 := rng.NewStream(7, 1)
	st.Resample(s1)
	m.generateMap(n, s2)
	for i := 0; i < 8; i++ {
		if a, b := s1.Float64(), s2.Float64(); a != b {
			t.Fatalf("draw %d after trial: state stream %v, oracle stream %v", i, a, b)
		}
	}
}

// TestGeometricStateSteadyStateAllocs pins the zero-allocation contract of
// the reused trial state.
func TestGeometricStateSteadyStateAllocs(t *testing.T) {
	m, err := NewGeometric(10, 0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	st := m.NewScenarioState(96)
	for i := uint64(0); i < 8; i++ { // warm buffers on every seed measured below
		st.Resample(rng.NewStream(3, i))
	}
	i := uint64(0)
	avg := testing.AllocsPerRun(30, func() {
		st.Resample(rng.NewStream(3, i%8))
		i++
	})
	// rng.NewStream itself may allocate its stream object; tolerate only
	// that by measuring it separately and subtracting.
	base := testing.AllocsPerRun(30, func() {
		rng.NewStream(3, i%8)
		i++
	})
	if avg-base > 0 {
		t.Fatalf("steady-state Resample allocates %.1f objects/op beyond stream creation, want 0", avg-base)
	}
}

// TestGeometricStateOverflowFallback: sizes the packed-event word cannot
// cover must yield a nil state (and Generate must still work through the
// map path). Exercised with an absurd lifetime rather than an absurd n so
// the test stays cheap.
func TestGeometricStateOverflowFallback(t *testing.T) {
	m, err := NewGeometric(1<<40, 0.2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if st := m.NewScenarioState(1 << 16); st != nil {
		t.Fatal("expected nil state for overflowing n²·(a+1)")
	}
}
