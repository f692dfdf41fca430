package rng

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// The bulk forms against their per-edge loops: labels, offsets and the
// whole stream state after the draw. Where the 8-lane kernels are built
// the sizes below cross the lane path's edges: m below 8 and not a
// multiple of it (leftover edges), one edge per lane, labelings on both
// sides of minLaneWords, and lifetimes on both sides of a 64-slot chunk.

var (
	bulkEdges = []int{0, 1, 7, 8, 9, 33, 992, 2256, 4033}
	bulkSlots = []int{1, 2, 63, 64, 65, 128, 200}
)

// logPath says which path the bulk forms take on this build and CPU.
func logPath(t *testing.T) {
	t.Helper()
	if haveLanes {
		t.Logf("8-lane AVX-512F kernels for labelings of at least %d words", minLaneWords)
	} else {
		t.Log("per-edge kernels only: the 8-lane kernels are not built or the CPU lacks AVX-512F")
	}
}

// schedulesByEdge is AppendSchedules's per-edge loop.
func schedulesByEdge(r *Stream, dst, off []int32, coins []Coin) []int32 {
	for e := 0; e+1 < len(off); e++ {
		dst = r.appendSchedule(dst, coins)
		off[e+1] = int32(len(dst))
	}
	return dst
}

// chainsByEdge is AppendChains's per-edge loop.
func chainsByEdge(r *Stream, dst, off []int32, a int, start, leave, enter Coin) []int32 {
	for e := 0; e+1 < len(off); e++ {
		dst = r.appendChain(dst, a, start, leave, enter)
		off[e+1] = int32(len(dst))
	}
	return dst
}

// checkLabeling compares one bulk draw with its per-edge loop, each on a
// prefixed dst, an offset slice whose first entry is not 0, and a fresh
// stream of the given seed.
func checkLabeling(t *testing.T, what string, seed uint64, m int,
	bulk, byEdge func(r *Stream, dst, off []int32) []int32) {
	t.Helper()
	prefix := []int32{4, 4, 4}
	off, wantOff := make([]int32, m+1), make([]int32, m+1)
	off[0], wantOff[0] = 3, 3
	r, ref := New(seed), New(seed)
	got := bulk(r, slices.Clone(prefix), off)
	want := byEdge(ref, slices.Clone(prefix), wantOff)
	if !slices.Equal(got, want) || !slices.Equal(off, wantOff) {
		i := 0
		for i < min(len(off), len(wantOff)) && off[i] == wantOff[i] {
			i++
		}
		t.Fatalf("%s m=%d seed %d: labels differ (%d against %d labels, first offset to differ at edge %d)",
			what, m, seed, len(got), len(want), i-1)
	}
	if *r != *ref {
		t.Fatalf("%s m=%d seed %d: stream state %v after the bulk form, %v after the per-edge loop", what, m, seed, *r, *ref)
	}
}

func checkSchedules(t *testing.T, what string, seed uint64, m int, coins []Coin) {
	t.Helper()
	checkLabeling(t, what, seed, m,
		func(r *Stream, dst, off []int32) []int32 { return r.AppendSchedules(dst, off, coins) },
		func(r *Stream, dst, off []int32) []int32 { return schedulesByEdge(r, dst, off, coins) })
}

func checkChains(t *testing.T, seed uint64, m, a int, start, leave, enter Coin) {
	t.Helper()
	checkLabeling(t, fmt.Sprintf("chain a=%d coins %v %v %v", a, start, leave, enter), seed, m,
		func(r *Stream, dst, off []int32) []int32 { return r.AppendChains(dst, off, a, start, leave, enter) },
		func(r *Stream, dst, off []int32) []int32 { return chainsByEdge(r, dst, off, a, start, leave, enter) })
}

func constCoins(a int, p float64) []Coin {
	coins := make([]Coin, a)
	for i := range coins {
		coins[i] = NewCoin(p)
	}
	return coins
}

func TestAppendSchedulesMatchesEdges(t *testing.T) {
	logPath(t)
	gen := New(31)
	seed := uint64(0)
	for _, a := range bulkSlots {
		ramp := make([]Coin, a)
		for i := range ramp {
			ramp[i] = NewCoin(0.02 + 0.5*float64(i)/float64(a))
		}
		drawing := make([]Coin, a) // every coin draws, NaN and the extreme cuts among them
		for i := range drawing {
			drawing[i] = NewCoin([]float64{1.0 / (1 << 53), 1 - 1.0/(1<<53), math.NaN(), gen.Float64()}[i%4])
		}
		schedules := map[string][]Coin{
			"p=0":     constCoins(a, 0),
			"p=1":     constCoins(a, 1),
			"p=0.1":   constCoins(a, 0.1),
			"ramp":    ramp,
			"drawing": drawing,
			"mixed":   randomCoins(gen, a), // p = 0 and p = 1 slots among drawing ones
		}
		for name, coins := range schedules {
			for _, m := range bulkEdges {
				seed++
				checkSchedules(t, fmt.Sprintf("schedule %s a=%d", name, a), seed, m, coins)
			}
		}
	}
}

func TestAppendChainsMatchesEdges(t *testing.T) {
	logPath(t)
	const ulp = 1.0 / (1 << 53)
	// Transition pairs on both sides of rareSwitch, and at the extreme
	// drawing cuts, with each start: drawing, never on, always on.
	pairs := [][2]float64{{0.25, 0.25 * 0.05 / 0.95}, {0.5, 0.5}, {1.0 / 64, 0.9}, {0.9, 1.0 / 64}, {1e-4, 1e-3}, {ulp, 1 - ulp}, {1 - ulp, ulp}}
	starts := []float64{0.05, 0, 1, 0.5}
	seed := uint64(100)
	for _, a := range bulkSlots {
		for _, pe := range pairs {
			for _, ps := range starts {
				for _, m := range bulkEdges {
					seed++
					checkChains(t, seed, m, a, NewCoin(ps), NewCoin(pe[0]), NewCoin(pe[1]))
				}
			}
		}
	}
	// Transition coins that draw nothing take the per-edge loop.
	for _, pe := range [][2]float64{{1, 0.1}, {0.1, 1}, {1, 1}, {0, 0.3}} {
		seed++
		checkChains(t, seed, 992, 64, NewCoin(0.3), NewCoin(pe[0]), NewCoin(pe[1]))
	}
}

// TestLanesAtEverySize runs the lane path itself, below minLaneWords
// too, on every labeling the lanes can take: a lane of one edge, one slot,
// and a chain that draws one word per edge.
func TestLanesAtEverySize(t *testing.T) {
	logPath(t)
	if !haveLanes {
		t.Skip("no 8-lane kernels on this build or CPU")
	}
	seed := uint64(1000)
	for _, m := range []int{8, 9, 15, 16, 17, 40} {
		for _, a := range []int{1, 2, 3, 64, 65} {
			seed++
			coins := randomCoins(New(seed), a)
			for i := range coins {
				if !coins[i].draw {
					coins[i] = NewCoin(0.4)
				}
			}
			checkLabeling(t, "schedule lanes", seed, m,
				func(r *Stream, dst, off []int32) []int32 {
					dst, e := r.scheduleLanes(dst, off, coins)
					return schedulesByEdge(r, dst, off[e:], coins)
				},
				func(r *Stream, dst, off []int32) []int32 { return schedulesByEdge(r, dst, off, coins) })
			for _, start := range []Coin{NewCoin(0.3), NewCoin(0), NewCoin(1)} {
				w := a - 1
				if start.draw {
					w++
				}
				if w == 0 {
					continue
				}
				leave, enter := NewCoin(0.2), NewCoin(0.7)
				checkLabeling(t, "chain lanes", seed, m,
					func(r *Stream, dst, off []int32) []int32 {
						dst, e := r.chainLanes(dst, off, a, w, start, leave, enter)
						return chainsByEdge(r, dst, off[e:], a, start, leave, enter)
					},
					func(r *Stream, dst, off []int32) []int32 { return chainsByEdge(r, dst, off, a, start, leave, enter) })
			}
		}
	}
}

// TestBulkConcurrent draws from several goroutines at once, each over
// lane lengths of its own and some shared, so that the lane-table cache
// and the scratch pool are hit, missed and refilled concurrently; every
// draw must still match its per-edge loop.
func TestBulkConcurrent(t *testing.T) {
	logPath(t)
	done := make(chan error)
	const workers = 4
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < 40; i++ {
				m, a := 200+8*i+w*(i%2), 40+i%3 // more lane lengths than the cache holds
				coins := constCoins(a, 0.2)
				r, ref := NewStream(uint64(w), uint64(i)), NewStream(uint64(w), uint64(i))
				off, wantOff := make([]int32, m+1), make([]int32, m+1)
				got := r.AppendSchedules(nil, off, coins)
				want := schedulesByEdge(ref, nil, wantOff, coins)
				got = r.AppendChains(got, off, a, NewCoin(0.3), NewCoin(0.25), NewCoin(0.1))
				want = chainsByEdge(ref, want, wantOff, a, NewCoin(0.3), NewCoin(0.25), NewCoin(0.1))
				if !slices.Equal(got, want) || !slices.Equal(off, wantOff) || *r != *ref {
					done <- fmt.Errorf("worker %d draw %d (m=%d, a=%d): bulk forms differ from the per-edge loops", w, i, m, a)
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// FuzzAppendSchedules checks AppendSchedules against its per-edge loop
// for ramp schedules of arbitrary ends, lifetimes, edge counts and seeds.
func FuzzAppendSchedules(f *testing.F) {
	f.Add(uint64(1), 2256, 48, 0.08, 0.08)
	f.Add(uint64(2), 992, 32, 0.0, 1.0)
	f.Add(uint64(3), 4033, 65, 0.3, 0.02)
	f.Add(uint64(4), 9, 200, math.NaN(), 5e-324)
	f.Fuzz(func(t *testing.T, seed uint64, m, a int, p0, p1 float64) {
		m, a = int(uint(m)%5000), int(uint(a)%300)
		coins := make([]Coin, a)
		for i := range coins {
			coins[i] = NewCoin(p0 + (p1-p0)*float64(i)/float64(max(1, a-1)))
		}
		checkSchedules(t, fmt.Sprintf("ramp %v→%v a=%d", p0, p1, a), seed, m, coins)
	})
}

// FuzzAppendChains checks AppendChains against its per-edge loop for
// arbitrary coins, lifetimes, edge counts and seeds.
func FuzzAppendChains(f *testing.F) {
	f.Add(uint64(1), 2256, 48, 0.08, 0.25, 0.25*0.08/0.92)
	f.Add(uint64(2), 8128, 128, 0.5, 0.5, 0.5)
	f.Add(uint64(3), 4033, 65, 0.0, 1.0/32, 0.9)
	f.Add(uint64(4), 993, 64, 1.0, 1-1.0/(1<<53), 5e-324)
	f.Fuzz(func(t *testing.T, seed uint64, m, a int, ps, pl, pe float64) {
		m, a = int(uint(m)%9000), int(uint(a)%300)
		checkChains(t, seed, m, a, NewCoin(ps), NewCoin(pl), NewCoin(pe))
	})
}

// BenchmarkAppendChains draws a 48-slot chain on each of 2256 edges per
// op, E18's markov cell at n = 48 and c = 1 (pi = ln 48/48, runlen 4).
func BenchmarkAppendChains(b *testing.B) {
	pi := math.Log(48) / 48
	start, leave, enter := NewCoin(pi), NewCoin(0.25), NewCoin(0.25*pi/(1-pi))
	r := New(1)
	off := make([]int32, 2257)
	var dst []int32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = r.AppendChains(dst[:0], off, 48, start, leave, enter)
	}
}

// BenchmarkAppendSchedules draws E18's iid cell at n = 48 and c = 1: a
// constant schedule of 48 slots on each of 2256 edges per op.
func BenchmarkAppendSchedules(b *testing.B) {
	coins := constCoins(48, math.Log(48)/48)
	r := New(1)
	off := make([]int32, 2257)
	var dst []int32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = r.AppendSchedules(dst[:0], off, coins)
	}
}
