package avail

import (
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// DefaultLifetime is the label range used when a Params leaves Lifetime
// unset.
const DefaultLifetime = 64

// Model assigns time labels in {1,…,Lifetime()} to the edges of a static
// graph. Implementations draw randomness only from the stream they are
// handed, in an order fixed by the model and its parameters, so assignments
// are bit-deterministic per (seed, params).
type Model interface {
	// Name is a short identifier used in table rows and file headers.
	Name() string
	// Lifetime is the largest label the model can emit (the paper's a).
	Lifetime() int
	// Assign draws a labeling for the edges of g using only stream. Edges
	// may receive empty label sets.
	Assign(g *graph.Graph, stream *rng.Stream) temporal.Labeling
}

// Scenario is a model whose adjacency is part of the model: Generate builds
// both the static support graph on n vertices and its labeling from one
// stream. Scenario models still implement Assign — given an explicit
// substrate they label only its edges — but Generate is the primary entry
// point.
type Scenario interface {
	Model
	Generate(n int, stream *rng.Stream) (*graph.Graph, temporal.Labeling)
}

// Resampler is the optional in-place fast path batched trial engines
// (sim.BatchRunner) drive: Resample redraws a labeling for g into lab,
// reusing lab's backing arrays (temporal.Labeling.Reset). The contract is
// bit-identity with Assign — Resample must consume stream exactly as
// Assign does and leave lab equal to Assign's return value for the same
// stream state — so a trial driven through Resample + temporal.Relabel
// reproduces the rebuild path's numbers exactly. Implementations must not
// retain lab's slices.
//
// The i.i.d. laws and the p(t) schedules fill in place, the Markov model
// re-runs its per-edge chains into the existing buffer; the geometric
// scenario rebuilds its support graph per draw and so never implements
// this (CanResample reports false, and engines fall back to the full
// rebuild).
type Resampler interface {
	Model
	Resample(g *graph.Graph, lab *temporal.Labeling, stream *rng.Stream)
}

// CanResample reports whether m supports the in-place resampling fast path
// on a fixed substrate: it must implement Resampler and must not be a
// Scenario (scenario models redraw their own support graph per trial, so
// there is no fixed substrate to relabel — their fast path is
// IncrementalScenario instead).
func CanResample(m Model) bool {
	if _, sc := m.(Scenario); sc {
		return false
	}
	_, ok := m.(Resampler)
	return ok
}

// IsScenario reports whether m generates its own support graph (implements
// Scenario). Engines use it to route: scenario models get a fresh or
// state-owned graph per trial, so optimizations tied to a fixed substrate
// (cached static reachability, substrate relabeling) must not apply.
func IsScenario(m Model) bool {
	_, ok := m.(Scenario)
	return ok
}

// ScenarioState is the reusable per-worker trial state of an incremental
// scenario: Resample redraws one full trial and returns the support graph's
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

// IncrementalScenario is the scenario analogue of Resampler: a Scenario
// whose trials can be redrawn into reusable per-worker state instead of
// allocating a fresh graph + labeling each time. NewScenarioState returns
// nil when the model cannot support the incremental path for this n (e.g.
// packed-key overflow on absurd sizes); engines must then fall back to
// Generate per trial.
type IncrementalScenario interface {
	Scenario
	NewScenarioState(n int) ScenarioState
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
	return temporal.MustNew(g, m.Lifetime(), m.Assign(g, stream))
}
