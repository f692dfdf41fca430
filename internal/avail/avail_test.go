package avail

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// draw is m's Resample into a fresh labeling.
func draw(m Model, g *graph.Graph, stream *rng.Stream) temporal.Labeling {
	var lab temporal.Labeling
	m.Resample(g, &lab, stream)
	return lab
}

// allModels builds one representative instance of every registered model at
// a common lifetime.
func allModels(t *testing.T, lifetime int) []Model {
	t.Helper()
	var out []Model
	for _, name := range Names() {
		m, err := Build(name, Params{Lifetime: lifetime})
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		out = append(out, m)
	}
	return out
}

func TestRegistryHasAllModels(t *testing.T) {
	for _, name := range []string{"uniform", "binom", "geom", "zipf", "markov",
		"pt", "pt-ramp", "pt-periodic", "pt-burst", "geometric"} {
		b, ok := Lookup(name)
		if !ok {
			t.Fatalf("model %q not registered", name)
		}
		if b.Name == "" || b.Doc == "" {
			t.Fatalf("model %q has empty metadata", name)
		}
	}
	if _, ok := Lookup(" MARKOV "); !ok {
		t.Fatal("lookup should be case- and space-insensitive")
	}
	if b, _ := Lookup("geometric"); !b.Scenario {
		t.Fatal("geometric must be flagged as a scenario")
	}
	if b, _ := Lookup("markov"); b.Scenario {
		t.Fatal("markov must not be flagged as a scenario")
	}
}

func TestBuildRejectsUnknown(t *testing.T) {
	if _, err := Build("no-such-model", Params{}); err == nil {
		t.Fatal("unknown model must error")
	}
	if _, err := Build("markov", Params{P: map[string]float64{"alpha": 0.1}}); err == nil {
		t.Fatal("unknown knob must error")
	}
	if _, err := Build("markov", Params{P: map[string]float64{"pi": 1.5}}); err == nil {
		t.Fatal("out-of-range pi must error")
	}
	if _, err := Build("markov", Params{P: map[string]float64{"pi": 0.9, "runlen": 1}}); err == nil {
		t.Fatal("infeasible alpha > 1 must error")
	}
	if _, err := Build("geometric", Params{P: map[string]float64{"radius": 0.7}}); err == nil {
		t.Fatal("radius >= 0.5 must error")
	}
	if _, err := Build("pt-burst", Params{P: map[string]float64{"width": 0}}); err == nil {
		t.Fatal("zero burst width must error")
	}
}

// TestParseKnobsRejectsNonFinite: the knob parser refuses NaN and ±Inf in
// every spelling strconv accepts, and still parses finite values.
func TestParseKnobsRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want map[string]float64 // nil: must fail
	}{
		{"s=NaN", nil},
		{"s=nan", nil},
		{"runlen=Inf", nil},
		{"runlen=+Inf", nil},
		{"amp=-Inf", nil},
		{"cycles=infinity", nil},
		{"pi=0.1,start=NaN", nil},
		{"width=1e400", nil}, // overflows to +Inf: strconv reports a range error
		{"pi=0.1, runlen = 4", map[string]float64{"pi": 0.1, "runlen": 4}},
		{"radius=0,step=5e-324", map[string]float64{"radius": 0, "step": 5e-324}},
	} {
		got, err := ParseKnobs(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Fatalf("ParseKnobs(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("ParseKnobs(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// TestBuildRejectsNaNKnobs sets every declared knob of every model to NaN
// in turn, as a Go caller can through Params.P without ParseKnobs: each
// constructor's range check must fail it with an error, not a panic and
// not a model that silently draws nothing.
func TestBuildRejectsNaNKnobs(t *testing.T) {
	for _, b := range Builders() {
		for _, k := range b.Knobs {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Build(%s, %s=NaN) panicked: %v", b.Name, k.Name, r)
					}
				}()
				if _, err := Build(b.Name, Params{P: map[string]float64{k.Name: math.NaN()}}); err == nil {
					t.Fatalf("Build(%s, %s=NaN) succeeded", b.Name, k.Name)
				}
			}()
		}
	}
	// Infinite periodic knobs turn p(t) into NaN the same way.
	for _, k := range []string{"amp", "cycles"} {
		if _, err := Build("pt-periodic", Params{P: map[string]float64{k: math.Inf(1)}}); err == nil {
			t.Fatalf("Build(pt-periodic, %s=+Inf) succeeded", k)
		}
	}
}

// TestAssignValidAndDeterministic checks, for every model, that the
// labeling Resample draws passes temporal.New's validation on several
// substrates and that two draws from identical streams are bit-identical.
func TestAssignValidAndDeterministic(t *testing.T) {
	substrates := []*graph.Graph{
		graph.Clique(12, false),
		graph.Clique(8, true),
		graph.Grid(4, 5),
		graph.Star(9),
		graph.Path(2),
		graph.Clique(1, false),
		graph.NewBuilder(0, false).Build(),
	}
	for _, m := range allModels(t, 20) {
		for gi, g := range substrates {
			lab1 := draw(m, g, rng.NewStream(99, uint64(gi)))
			lab2 := draw(m, g, rng.NewStream(99, uint64(gi)))
			if !reflect.DeepEqual(lab1, lab2) {
				t.Fatalf("%s: substrate %d: draw not deterministic", m.Name(), gi)
			}
			net, err := temporal.New(g, m.Lifetime(), lab1)
			if err != nil {
				t.Fatalf("%s: substrate %d: invalid labeling: %v", m.Name(), gi, err)
			}
			if net.Lifetime() != m.Lifetime() {
				t.Fatalf("%s: lifetime mismatch", m.Name())
			}
		}
	}
}

// TestNetworkBuildsEveryModel is the Network helper counterpart, covering
// the scenario dispatch.
func TestNetworkBuildsEveryModel(t *testing.T) {
	g := graph.Clique(10, false)
	for _, m := range allModels(t, 16) {
		net1 := Network(m, g, rng.NewStream(5, 0))
		net2 := Network(m, g, rng.NewStream(5, 0))
		if net1.String() != net2.String() || net1.LabelCount() != net2.LabelCount() {
			t.Fatalf("%s: Network not deterministic", m.Name())
		}
		if net1.Graph().N() != 10 {
			t.Fatalf("%s: Network lost the vertex count: n=%d", m.Name(), net1.Graph().N())
		}
	}
}

// plainScenario hides a scenario's NewScenarioState, so NewState falls
// back to its Generate state.
type plainScenario struct{ Scenario }

// fixedScenario generates g, labeled by the embedded model, whatever the
// vertex count it is asked for.
type fixedScenario struct {
	Model
	g *graph.Graph
}

func (s fixedScenario) Generate(_ int, stream *rng.Stream) (*graph.Graph, temporal.Labeling) {
	return s.g, draw(s.Model, s.g, stream)
}

// TestNewStateFallsBackToGenerate: NewState hands out geometric's own
// incremental state where NewScenarioState has one, and the Generate state
// where it returns nil (the packed-key overflow of
// TestGeometricStateOverflowFallback) or where the scenario has no
// incremental state at all; the Generate state matches the oracle trial
// after trial, edge list, labels and stream consumption.
func TestNewStateFallsBackToGenerate(t *testing.T) {
	m, err := NewGeometric(12, 0.2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if st := NewState(m, 40); st == nil {
		t.Fatal("NewState(geometric, 40) = nil")
	} else if _, ok := st.(*geomState); !ok {
		t.Fatalf("NewState(geometric, 40) is %T, want geometric's own state", st)
	}
	huge, err := NewGeometric(1<<40, 0.2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if st := NewState(huge, 1<<16); st == nil {
		t.Fatal("NewState on packed-key overflow = nil")
	} else if _, ok := st.(generateState); !ok {
		t.Fatalf("NewState on packed-key overflow is %T, want the Generate state", st)
	}
	st := NewState(plainScenario{m}, 40)
	if _, ok := st.(generateState); !ok {
		t.Fatalf("NewState without an incremental state is %T, want the Generate state", st)
	}
	for trial := uint64(0); trial < 4; trial++ {
		checkTrial(t, "generate-state", st, m, 40, 5, trial)
	}
}

// TestGenerateStatePanicsOnUnfitGraph: the Generate state refuses a
// support graph the engine's worker network cannot take — a directed one,
// or one on another vertex count.
func TestGenerateStatePanicsOnUnfitGraph(t *testing.T) {
	uniform := NewIID(dist.NewUniform(6), 1)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		n    int
	}{
		{"directed", graph.Clique(5, true), 5},
		{"wrong-n", graph.Clique(6, false), 5},
	} {
		st := NewState(fixedScenario{uniform, tc.g}, tc.n)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Resample accepted the support graph", tc.name)
				}
			}()
			st.Resample(rng.NewStream(1, 0))
		}()
	}
	// The same scenario on a fitting graph draws.
	st := NewState(fixedScenario{uniform, graph.Clique(5, false)}, 5)
	if from, _, lab := st.Resample(rng.NewStream(1, 0)); len(from) != 10 || len(lab.Labels) != 10 {
		t.Fatalf("fitting graph: %d edges, %d labels, want 10 and 10", len(from), len(lab.Labels))
	}
}

func TestGeometricGenerateDegenerates(t *testing.T) {
	m, err := NewGeometric(8, 0.2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1} {
		g, lab := m.Generate(n, rng.NewStream(1, 0))
		if g.N() != n || g.M() != 0 || len(lab.Labels) != 0 {
			t.Fatalf("Generate(%d): n=%d m=%d labels=%d", n, g.N(), g.M(), len(lab.Labels))
		}
		if _, err := temporal.New(g, m.Lifetime(), lab); err != nil {
			t.Fatalf("Generate(%d): invalid network: %v", n, err)
		}
	}
}

// TestGeometricGridMatchesBruteForce pins the grid close-pair search to the
// quadratic scan: the same seed at a size that takes the grid path must
// produce the exact same support graph and labels as brute force.
func TestGeometricGridMatchesBruteForce(t *testing.T) {
	m, err := NewGeometric(12, 0.11, 0.07) // cells = 9 ≥ 4, n ≥ 16 → grid path
	if err != nil {
		t.Fatal(err)
	}
	n := 60
	g, lab := m.Generate(n, rng.NewStream(31, 7))

	// Brute-force reference: replay the identical walk via Resample on the
	// complete graph, then drop empty edges.
	full := graph.Clique(n, false)
	ref := draw(m, full, rng.NewStream(31, 7))
	type pair struct{ u, v int }
	want := map[pair][]int32{}
	for e := 0; e < full.M(); e++ {
		seg := ref.Labels[ref.Off[e]:ref.Off[e+1]]
		if len(seg) == 0 {
			continue
		}
		u, v := full.Endpoints(e)
		if u > v {
			u, v = v, u
		}
		want[pair{u, v}] = seg
	}
	if g.M() != len(want) {
		t.Fatalf("grid found %d edges, brute force %d", g.M(), len(want))
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		if u > v {
			u, v = v, u
		}
		got := lab.Labels[lab.Off[e]:lab.Off[e+1]]
		if !reflect.DeepEqual(got, want[pair{u, v}]) {
			t.Fatalf("edge {%d,%d}: grid labels %v, brute force %v", u, v, got, want[pair{u, v}])
		}
	}
}

func TestMarkovDerivedRates(t *testing.T) {
	m, err := NewMarkov(10, 0.25, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.beta != 0.25 {
		t.Fatalf("beta = %v, want 1/runlen = 0.25", m.beta)
	}
	// alpha/(alpha+beta) must recover pi.
	pi := m.alpha / (m.alpha + m.beta)
	if diff := pi - 0.25; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("stationary availability %v, want 0.25", pi)
	}
}

func TestTimeVaryingSchedules(t *testing.T) {
	ramp, err := NewRamp(10, 0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if ramp.probs[0] != 0.1 || ramp.probs[9] != 0.5 {
		t.Fatalf("ramp endpoints %v, %v", ramp.probs[0], ramp.probs[9])
	}
	burst, err := NewBurst(10, 0.01, 0.9, 0.4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	inside := 0
	for t1 := 1; t1 <= 10; t1++ {
		switch burst.probs[t1-1] {
		case 0.9:
			inside++
		case 0.01:
		default:
			t.Fatalf("burst p(%d) = %v", t1, burst.probs[t1-1])
		}
	}
	if inside != 2 {
		t.Fatalf("burst covers %d slots, want 2 (width 0.2 of 10)", inside)
	}
	per, err := NewPeriodic(12, 0.5, 1.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for t1 := 1; t1 <= 12; t1++ {
		if p := per.probs[t1-1]; p < 0 || p > 1 {
			t.Fatalf("periodic p(%d) = %v outside [0,1]", t1, p)
		}
	}
	if !strings.HasPrefix(ramp.Name(), "pt-ramp") {
		t.Fatalf("ramp name %q", ramp.Name())
	}
}

func TestBuildersMetadataComplete(t *testing.T) {
	bs := Builders()
	if len(bs) != len(Names()) {
		t.Fatalf("Builders() returned %d entries, Names() %d", len(bs), len(Names()))
	}
	for _, b := range bs {
		for _, k := range b.Knobs {
			if k.Name == "" || k.Doc == "" {
				t.Fatalf("model %q knob with empty metadata", b.Name)
			}
		}
		// Defaults must build.
		if _, err := Build(b.Name, Params{Lifetime: 8}); err != nil {
			t.Fatalf("model %q fails to build with defaults: %v", b.Name, err)
		}
	}
}
