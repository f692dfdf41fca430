package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sweep"
)

func TestSweepTargetKind(t *testing.T) {
	if k := (SweepTarget{Metric: "meandelta"}).Kind(); k != sweep.Mean {
		t.Fatalf("meandelta kind = %v", k)
	}
	for _, m := range []string{"", "treach", "Reach"} {
		if k := (SweepTarget{Metric: m}).Kind(); k != sweep.Proportion {
			t.Fatalf("metric %q kind = %v", m, k)
		}
	}
}

func TestSweepTargetValidate(t *testing.T) {
	grid := sweep.Grid{Axes: []sweep.Axis{{Name: "n", Values: []float64{16}}}}
	good := SweepTarget{Model: "markov", MP: map[string]float64{"runlen": 2}}
	if err := good.Validate(grid); err != nil {
		t.Fatalf("valid target rejected: %v", err)
	}
	cases := map[string]SweepTarget{
		"unknown model":  {Model: "nope"},
		"foreign knob":   {Model: "uniform", MP: map[string]float64{"pi": 0.1}},
		"unknown graph":  {Model: "uniform", Graph: "hyperbolic"},
		"unknown metric": {Model: "uniform", Metric: "latency"},
		"neg lifetime":   {Model: "uniform", Lifetime: -4},
	}
	for name, tgt := range cases {
		if err := tgt.Validate(grid); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	badAxis := sweep.Grid{Axes: []sweep.Axis{{Name: "warp", Values: []float64{1}}}}
	if err := (SweepTarget{Model: "uniform"}).Validate(badAxis); err == nil {
		t.Error("foreign axis accepted")
	}
	fractional := sweep.Grid{Axes: []sweep.Axis{{Name: "n", Values: []float64{16, 24.5}}}}
	if err := (SweepTarget{Model: "uniform"}).Validate(fractional); err == nil {
		t.Error("fractional n accepted — the run would silently truncate it")
	}
	negative := sweep.Grid{Axes: []sweep.Axis{{Name: "n", Values: []float64{-5}}}}
	if err := (SweepTarget{Model: "uniform"}).Validate(negative); err == nil {
		t.Error("negative n accepted — the graph builder would panic")
	}
	zeroLife := sweep.Grid{Axes: []sweep.Axis{{Name: "lifetime", Values: []float64{0, 16}}}}
	if err := (SweepTarget{Model: "uniform"}).Validate(zeroLife); err == nil {
		t.Error("lifetime 0 accepted — it would silently coerce to n")
	}
	// An n the family cannot be built on is rejected at submit, naming
	// the axis, instead of failing its cell.
	for _, tc := range []struct {
		graph string
		n     float64
		want  string
	}{
		{"cycle", 2, "cycle needs n >= 3"},
		{"regular", 4, "regular needs 0 <= deg < n"},
	} {
		small := sweep.Grid{Axes: []sweep.Axis{{Name: "n", Values: []float64{16, tc.n}}}}
		err := (SweepTarget{Model: "uniform", Graph: tc.graph}).Validate(small)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), `axis "n"`) {
			t.Errorf("%s n=%g: Validate = %v, want an axis \"n\" error containing %q", tc.graph, tc.n, err, tc.want)
		}
	}
}

// TestSweepTargetObservableMetrics runs every metric on a tiny cell and
// checks the value domain plus determinism per (values, trial).
func TestSweepTargetObservableMetrics(t *testing.T) {
	if _, err := (SweepTarget{Model: "nope"}).Observable(); err == nil {
		t.Fatal("bad target should not build an observable")
	}
	values := map[string]float64{"n": 10, "lifetime": 12}
	for _, metric := range SweepMetrics() {
		tgt := SweepTarget{Model: "uniform", Metric: metric}
		obs, err := tgt.Observable()
		if err != nil {
			t.Fatalf("%s: %v", metric, err)
		}
		for trial := 0; trial < 4; trial++ {
			v := obs(values, trial, rng.NewStream(5, uint64(trial)))
			again := obs(values, trial, rng.NewStream(5, uint64(trial)))
			if v != again {
				t.Fatalf("%s: trial %d not deterministic (%v vs %v)", metric, trial, v, again)
			}
			if metric != "meandelta" && v != 0 && v != 1 {
				t.Fatalf("%s: observation %v outside {0,1}", metric, v)
			}
			if v < 0 {
				t.Fatalf("%s: negative observation %v", metric, v)
			}
		}
	}
}

// TestSweepTargetInfeasibleCellReportsNaN: a knob corner the model
// rejects (markov alpha > 1) must observe NaN — the estimator's
// "unmeasurable" signal — never a confident 0, which would invert the
// response at the feasibility edge and break threshold bracketing.
func TestSweepTargetInfeasibleCellReportsNaN(t *testing.T) {
	obs, err := (SweepTarget{Model: "markov"}).Observable()
	if err != nil {
		t.Fatal(err)
	}
	v := obs(map[string]float64{"n": 8, "pi": 0.99}, 0, rng.NewStream(1, 0))
	if !math.IsNaN(v) {
		t.Fatalf("infeasible cell observed %v, want NaN", v)
	}
	// And the estimator surfaces it as a loud per-cell error.
	a := sweep.Adaptive{Seed: 1, Kind: sweep.Proportion, Prec: sweep.Precision{MaxTrials: 16}}
	_, estErr := a.Estimate(context.Background(), func(trial int, r *rng.Stream) float64 {
		return obs(map[string]float64{"n": 8, "pi": 0.99}, trial, r)
	})
	if estErr == nil {
		t.Fatal("estimator accepted an unmeasurable cell")
	}
}

// TestSweepTargetKnobAxisOverridesMP pins the per-cell merge order: a
// knob-named axis must win over the base MP value.
func TestSweepTargetKnobAxisOverridesMP(t *testing.T) {
	tgt := SweepTarget{Model: "markov", MP: map[string]float64{"pi": 0.99}} // infeasible base
	obs, err := tgt.Observable()
	if err != nil {
		t.Fatal(err)
	}
	// Axis override pi=0.4 is feasible and dense enough that a 6-clique
	// with lifetime 64 is essentially always temporally connected.
	ones := 0
	for trial := 0; trial < 8; trial++ {
		ones += int(obs(map[string]float64{"n": 6, "lifetime": 64, "pi": 0.4}, trial, rng.NewStream(9, uint64(trial))))
	}
	if ones == 0 {
		t.Fatal("axis override did not replace the infeasible base knob")
	}
}
