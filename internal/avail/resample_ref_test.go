package avail

// Reference tests for the label-draw kernels. Markov.Resample and
// TimeVarying.Resample run on rng.AppendChains and rng.AppendSchedules, and
// nothing else checks them independently.
// The references below are each model in its plain per-slot
// Stream.Bernoulli form; each case compares the labels, the offsets and
// the stream's next word after the draw.

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// markovReference is the per-slot Bernoulli form of Markov.Resample.
func markovReference(m Markov, g *graph.Graph, lab *temporal.Labeling, stream *rng.Stream) {
	me := g.M()
	lab.Reset(me)
	for e := 0; e < me; e++ {
		on := stream.Bernoulli(m.pi)
		for t := 1; t <= m.a; t++ {
			if on {
				lab.Labels = append(lab.Labels, int32(t))
			}
			if t < m.a {
				if on {
					on = !stream.Bernoulli(m.beta)
				} else {
					on = stream.Bernoulli(m.alpha)
				}
			}
		}
		lab.Off[e+1] = int32(len(lab.Labels))
	}
}

// scheduleReference is the per-slot Bernoulli form of TimeVarying.Resample.
func scheduleReference(m TimeVarying, g *graph.Graph, lab *temporal.Labeling, stream *rng.Stream) {
	me := g.M()
	lab.Reset(me)
	for e := 0; e < me; e++ {
		for t := 1; t <= len(m.probs); t++ {
			if stream.Bernoulli(m.probs[t-1]) {
				lab.Labels = append(lab.Labels, int32(t))
			}
		}
		lab.Off[e+1] = int32(len(lab.Labels))
	}
}

// drawCase is one kernel-vs-reference comparison: draw runs the kernel
// under test, ref the Bernoulli loop, both from the same stream state.
type drawCase struct {
	name string
	g    *graph.Graph
	draw func(*graph.Graph, *temporal.Labeling, *rng.Stream)
	ref  func(*graph.Graph, *temporal.Labeling, *rng.Stream)
}

// checkDraws runs a case for several trials, reusing the kernel's
// labeling across trials (starting from one with spare capacity and stale
// contents) and comparing each trial against a fresh reference draw. It
// also checks the kernel's draw into a fresh labeling, which must come
// out the same.
func checkDraws(t *testing.T, tc drawCase) {
	t.Helper()
	lab := temporal.Labeling{
		Labels: append(make([]int32, 0, 1<<14), 7, 7, 7),
		Off:    append(make([]int32, 0, 1<<10), 0, 3),
	}
	for trial := uint64(0); trial < 5; trial++ {
		s1, s2, s3 := rng.NewStream(17, trial), rng.NewStream(17, trial), rng.NewStream(17, trial)
		tc.draw(tc.g, &lab, s1)
		var want temporal.Labeling
		tc.ref(tc.g, &want, s2)
		if !slices.Equal(lab.Labels, want.Labels) || !slices.Equal(lab.Off, want.Off) {
			t.Fatalf("%s trial %d: kernel labeling differs from the Bernoulli loop:\n got %v %v\nwant %v %v",
				tc.name, trial, lab.Off, lab.Labels, want.Off, want.Labels)
		}
		if a, b := s1.Uint64(), s2.Uint64(); a != b {
			t.Fatalf("%s trial %d: stream after the kernel at %#x, after the Bernoulli loop at %#x", tc.name, trial, a, b)
		}
		var fresh temporal.Labeling
		tc.draw(tc.g, &fresh, s3)
		if !slices.Equal(fresh.Labels, want.Labels) || !slices.Equal(fresh.Off, want.Off) {
			t.Fatalf("%s trial %d: the draw into a fresh labeling differs from the Bernoulli loop", tc.name, trial)
		}
	}
}

func TestMarkovResampleMatchesReference(t *testing.T) {
	if m, _ := NewMarkov(30, 0.75, 3); !(m.alpha == 1 && m.beta < 1) {
		t.Fatalf("alpha-1-only case: alpha=%v beta=%v, want alpha=1 and beta<1", m.alpha, m.beta)
	}
	empty := graph.NewBuilder(5, false).Build()
	cases := []struct {
		name       string
		a          int
		pi, runlen float64
		g          *graph.Graph
	}{
		{"default", 40, 0.25, 4, graph.Clique(9, false)},
		{"sparse-bench", 128, 0.05, 4, graph.Clique(8, false)},
		{"long-runs", 64, 0.8, 30, graph.Star(12)},
		{"beta-1", 30, 0.3, 1, graph.Clique(7, false)},        // runlen=1: leave never draws
		{"alpha-1", 30, 0.5, 1, graph.Clique(7, false)},       // pi=0.5, runlen=1: neither transition draws
		{"alpha-1-only", 30, 0.75, 3, graph.Clique(7, false)}, // alpha=1, beta=1/3: only enter draws nothing
		{"lifetime-1", 1, 0.4, 3, graph.Clique(6, false)},     // start coin only
		{"lifetime-2", 2, 0.4, 3, graph.Clique(6, false)},     // one transition
		{"no-edges", 20, 0.25, 4, empty},                      // draws nothing
		{"directed", 16, 0.1, 2.5, graph.Clique(5, true)},     // arcs draw like edges
		// Labelings big enough for rng's 8-lane kernels where they are
		// built: E18's n = 48 cell, and one whose edges split into the
		// lanes with 5 left over, over more than one 64-slot chunk.
		{"lanes-e18", 48, 0.08, 4, graph.Clique(48, true)},
		{"lanes-leftover", 65, 0.25, 4, graph.Clique(23, false)},
	}
	for _, c := range cases {
		m, err := NewMarkov(c.a, c.pi, c.runlen)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkDraws(t, drawCase{
			name: c.name, g: c.g,
			draw: m.Resample,
			ref: func(g *graph.Graph, lab *temporal.Labeling, s *rng.Stream) {
				markovReference(m, g, lab, s)
			},
		})
	}
}

func TestTimeVaryingResampleMatchesReference(t *testing.T) {
	mk := func(m TimeVarying, err error) TimeVarying {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	empty := graph.NewBuilder(4, false).Build()
	cases := []struct {
		name string
		m    TimeVarying
		g    *graph.Graph
		// exact marks schedules that must hold slots of p = 0 and p = 1,
		// whose coins draw nothing.
		exact bool
	}{
		{"ramp", mk(NewRamp(50, 0.02, 0.3)), graph.Clique(8, false), false},
		{"ramp-0-to-1", mk(NewRamp(20, 0, 1)), graph.Clique(7, false), true},
		{"periodic-clamped", mk(NewPeriodic(36, 0.5, 1.5, 2)), graph.Star(10), true},
		{"burst-0-1", mk(NewBurst(25, 0, 1, 0.3, 0.3)), graph.Clique(6, false), true},
		{"lifetime-1", mk(NewRamp(1, 0.5, 0.5)), graph.Clique(6, false), false},
		{"no-edges", mk(NewRamp(20, 0.1, 0.9)), empty, false},
		{"lanes-e18", mk(NewRamp(48, 0.08, 0.08)), graph.Clique(48, true), false},
		{"lanes-ramp", mk(NewRamp(130, 0.02, 0.3)), graph.Clique(23, false), false},
		{"lanes-size-clamped", mk(NewPeriodic(64, 0.5, 1.5, 2)), graph.Clique(23, false), true},
	}
	for _, c := range cases {
		if c.exact && !(slices.Contains(c.m.probs, 0) && slices.Contains(c.m.probs, 1)) {
			t.Fatalf("%s: schedule lacks an exact 0 or 1 slot: %v", c.name, c.m.probs)
		}
		m := c.m
		checkDraws(t, drawCase{
			name: c.name, g: c.g,
			draw: m.Resample,
			ref: func(g *graph.Graph, lab *temporal.Labeling, s *rng.Stream) {
				scheduleReference(m, g, lab, s)
			},
		})
	}
}
