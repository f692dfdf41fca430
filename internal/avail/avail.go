package avail

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// DefaultLifetime is the label range used when a Params leaves Lifetime
// unset.
const DefaultLifetime = 64

// Model assigns time labels in {1,…,Lifetime()} to the edges of a static
// graph. Implementations draw randomness only from the stream they are
// handed, in an order fixed by the model and its parameters, so draws are
// bit-deterministic per (seed, params).
type Model interface {
	// Name is a short identifier used in table rows and file headers.
	Name() string
	// Lifetime is the largest label the model can emit (the paper's a).
	Lifetime() int
	// Resample draws a labeling for the edges of g into lab using only
	// stream, reusing lab's backing arrays (temporal.Labeling.Reset), so
	// the result never depends on what lab held before. Edges may receive
	// empty label sets. Implementations must not retain lab's slices.
	Resample(g *graph.Graph, lab *temporal.Labeling, stream *rng.Stream)
}

// Scenario is a model whose adjacency is part of the model: Generate builds
// both the static support graph on n vertices and its labeling from one
// stream. Generate is a scenario's draw: engines and Network call it, never
// the scenario's Resample, which labels an explicit substrate.
type Scenario interface {
	Model
	Generate(n int, stream *rng.Stream) (*graph.Graph, temporal.Labeling)
}

// Resampler is Model under the name perfbench/sweep.go still uses; it goes
// with the next change to perfbench/.
type Resampler = Model

// CanResample reports whether engines redraw m's labels in place on a
// fixed substrate: every model but a scenario. Only perfbench/sweep.go
// calls it; it goes with the next change to perfbench/.
func CanResample(m Model) bool { return !IsScenario(m) }

// IsScenario reports whether m generates its own support graph (implements
// Scenario). Engines use it to route: scenario models get a fresh or
// state-owned graph per trial, so optimizations tied to a fixed substrate
// (cached static reachability, substrate relabeling) must not apply.
func IsScenario(m Model) bool {
	_, ok := m.(Scenario)
	return ok
}

// ScenarioState is the reusable per-worker trial state of a scenario
// (NewState): Resample redraws one full trial and returns the support graph's
// edge list plus its labeling. The contract is bit-identity with Generate —
// Resample must consume stream exactly as Generate does, and (from, to,
// lab) must equal the edge list (in identifier order) and labeling of
// Generate's return for the same stream state — pinned by the differential
// tests in this package and by sim.BatchRunner's oracle tests.
//
// The returned slices are state-owned and overwritten by the next Resample:
// callers either consume them before resampling again or copy (which is
// exactly what temporal.Network.RelabelEdges does, so they can be fed to
// it directly). A state is bound to the vertex count it was created for;
// it is not safe for concurrent use — batch engines give each worker its
// own.
type ScenarioState interface {
	Resample(stream *rng.Stream) (from, to []int32, lab temporal.Labeling)
}

// IncrementalScenario is a Scenario whose trials can be redrawn into
// reusable per-worker state instead of allocating a fresh graph +
// labeling each time. NewScenarioState returns nil when the model cannot
// support the incremental path for this n (e.g. packed-key overflow on
// absurd sizes); NewState then falls back to Generate.
type IncrementalScenario interface {
	Scenario
	NewScenarioState(n int) ScenarioState
}

// NewState returns the per-worker trial state of scenario sc on n
// vertices: sc's own incremental state when it has one for n, and
// otherwise a state whose Resample runs one Generate. That state panics
// unless the support graph is undirected on n vertices, the shape of the
// worker network batch engines replace edges in.
func NewState(sc Scenario, n int) ScenarioState {
	if inc, ok := sc.(IncrementalScenario); ok {
		if st := inc.NewScenarioState(n); st != nil {
			return st
		}
	}
	return generateState{sc: sc, n: n}
}

// generateState is the ScenarioState of a scenario without an incremental
// state for its size: one Generate per trial.
type generateState struct {
	sc Scenario
	n  int
}

func (s generateState) Resample(stream *rng.Stream) (from, to []int32, lab temporal.Labeling) {
	g, lab := s.sc.Generate(s.n, stream)
	if g.Directed() || g.N() != s.n {
		panic(fmt.Sprintf("avail: %s generated a support graph with n=%d directed=%v, want an undirected graph on %d vertices",
			s.sc.Name(), g.N(), g.Directed(), s.n))
	}
	return g.FromArray(), g.ToArray(), lab
}

// Params parameterizes a registry Build. The zero value selects every
// default.
type Params struct {
	// Lifetime is the label range a; 0 or negative selects DefaultLifetime.
	Lifetime int `json:"lifetime,omitempty"`
	// R is the labels-per-edge budget of the i.i.d. laws; 0 or negative
	// means 1. Non-i.i.d. models ignore it.
	R int `json:"r,omitempty"`
	// P holds model-specific numeric knobs by name; missing knobs take the
	// registered defaults, unknown names are a Build error.
	P map[string]float64 `json:"p,omitempty"`
}

func (p Params) lifetime() int {
	if p.Lifetime <= 0 {
		return DefaultLifetime
	}
	return p.Lifetime
}

func (p Params) r() int {
	if p.R <= 0 {
		return 1
	}
	return p.R
}

// get returns the named knob, or def when absent.
func (p Params) get(name string, def float64) float64 {
	if v, ok := p.P[name]; ok {
		return v
	}
	return def
}

// Network assembles the temporal network a model induces on substrate g:
// scenario models replace g by their own support graph on g.N() vertices,
// edge models label g itself. The result's lifetime is the model's.
func Network(m Model, g *graph.Graph, stream *rng.Stream) *temporal.Network {
	if sc, ok := m.(Scenario); ok {
		gg, lab := sc.Generate(g.N(), stream)
		return temporal.MustNew(gg, m.Lifetime(), lab)
	}
	var lab temporal.Labeling
	m.Resample(g, &lab, stream)
	return temporal.MustNew(g, m.Lifetime(), lab)
}
