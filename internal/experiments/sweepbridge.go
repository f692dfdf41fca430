package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/avail"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/temporal"
)

// SweepTarget describes what a parameter-grid sweep measures: an
// availability model from the registry, a substrate family, and a response
// metric. It is the bridge cmd/sweep and the service's POST /sweeps share
// to turn a sweep spec into a sweep.CellObservable.
//
// Grid axes are interpreted by name: "n" is the substrate size (default
// 64), "lifetime" is the label range (default: the Lifetime field, else
// n), and every other axis must be a declared knob of the model and
// overrides the MP base value for that cell.
type SweepTarget struct {
	// Model names an availability model (internal/avail registry).
	Model string
	// MP holds base model-parameter overrides; knob-named grid axes
	// override these per cell.
	MP map[string]float64
	// Graph is the substrate family (graph.Family); empty means
	// "dclique", the directed clique the paper's Section 3 network and
	// E15–E18 all use.
	Graph string
	// Lifetime fixes the label range when no "lifetime" axis exists;
	// 0 means lifetime = n.
	Lifetime int
	// Metric names the response: "treach" (default) and "reach" are
	// proportions, "meandelta" is a mean. See SweepMetrics.
	Metric string
}

// SweepMetrics lists the supported response metrics.
//
//	treach    1 when the instance satisfies temporal reachability for
//	          every ordered pair (temporal connectivity) — Proportion.
//	reach     1 when every vertex is reachable from ≤64 sampled sources
//	          (the drivers' all-reach rate) — Proportion.
//	meandelta mean finite earliest-arrival delay over the same sampled
//	          sources — Mean.
func SweepMetrics() []string { return []string{"treach", "reach", "meandelta"} }

func (t SweepTarget) withDefaults() SweepTarget {
	t.Model = strings.ToLower(strings.TrimSpace(t.Model))
	t.Graph = strings.ToLower(strings.TrimSpace(t.Graph))
	if t.Graph == "" {
		t.Graph = "dclique"
	}
	t.Metric = strings.ToLower(strings.TrimSpace(t.Metric))
	if t.Metric == "" {
		t.Metric = "treach"
	}
	return t
}

// Kind returns the estimator family the metric needs.
func (t SweepTarget) Kind() sweep.Kind {
	if t.withDefaults().Metric == "meandelta" {
		return sweep.Mean
	}
	return sweep.Proportion
}

// Validate rejects unknown models, metrics, graph families, grid axes
// that are neither "n", "lifetime", nor a declared knob of the model, and
// n values the family cannot be built on (graph.CheckFamily) — the same
// fail-loudly contract as the experiment service's Request.
func (t SweepTarget) Validate(grid sweep.Grid) error {
	t = t.withDefaults()
	if _, ok := avail.Lookup(t.Model); !ok {
		return fmt.Errorf("unknown model %q (have %s)", t.Model, strings.Join(avail.Names(), ", "))
	}
	if err := avail.ValidateKnobs(t.Model, t.MP); err != nil {
		return err
	}
	ok := false
	for _, f := range graph.FamilyNames() {
		if f == t.Graph {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("unknown graph family %q (have %s)", t.Graph, strings.Join(graph.FamilyNames(), ", "))
	}
	ok = false
	for _, m := range SweepMetrics() {
		if m == t.Metric {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("unknown metric %q (have %s)", t.Metric, strings.Join(SweepMetrics(), ", "))
	}
	if err := grid.Validate(); err != nil {
		return err
	}
	for _, a := range grid.Axes {
		if a.Name == "n" || a.Name == "lifetime" {
			// Positive integers only: a truncated fraction would silently
			// run a different size than the checkpoint reports, a negative
			// n panics the graph builder, and a non-positive lifetime
			// would be silently coerced to n — two declared cells running
			// one configuration.
			for _, v := range a.Values {
				if v != math.Trunc(v) {
					return fmt.Errorf("axis %q: value %g is not an integer", a.Name, v)
				}
				if v < 1 {
					return fmt.Errorf("axis %q: value %g is not positive", a.Name, v)
				}
				if a.Name != "n" {
					continue
				}
				if err := graph.CheckFamily(t.Graph, int(v), graph.FamilyOpts{}); err != nil {
					return fmt.Errorf("axis %q: %v", a.Name, err)
				}
			}
			continue
		}
		if err := avail.ValidateKnobs(t.Model, map[string]float64{a.Name: 0}); err != nil {
			return fmt.Errorf("axis %q: %v", a.Name, err)
		}
	}
	if t.Lifetime < 0 {
		return fmt.Errorf("negative lifetime %d", t.Lifetime)
	}
	return nil
}

// deterministicFamilies names the graph.Family substrates that ignore the
// rng stream, so one build per size serves every trial of a sweep.
var deterministicFamilies = map[string]bool{
	"clique": true, "dclique": true, "star": true, "path": true,
	"cycle": true, "grid": true, "hypercube": true, "bintree": true,
}

// cellParams resolves a cell's axis assignment into its substrate size and
// availability model. ok = false marks an unmeasurable cell — a size below
// the domain (reachable only from threshold bisection probing under it) or
// model parameters the registry rejects (e.g. a Markov pi/runlen pair with
// alpha > 1) — which both execution paths surface as NaN observations so
// the adaptive estimator fails the cell loudly; a confident 0 there would
// invert the response at the feasibility edge and break threshold
// bracketing. Nothing here touches a trial stream, so the resolution can
// happen per trial (Observable) or once per cell (Source) without changing
// a single draw.
func (t SweepTarget) cellParams(values map[string]float64) (n int, m avail.Model, ok bool) {
	// Validate pins grid axes to integers; rounding (not truncation)
	// covers the remaining fractional source — threshold bisection
	// over n/lifetime — so the size run is the nearest one to the
	// probed knob value.
	n = 64
	if v, has := values["n"]; has {
		n = int(math.Round(v))
		if n < 1 {
			return 0, nil, false
		}
	}
	a := t.Lifetime
	if v, has := values["lifetime"]; has {
		a = int(math.Round(v))
		if a < 1 {
			return 0, nil, false
		}
	} else if a <= 0 {
		a = n
	}
	p := avail.Params{Lifetime: a, P: map[string]float64{}}
	for k, v := range t.MP {
		p.P[k] = v
	}
	for k, v := range values {
		if k != "n" && k != "lifetime" {
			p.P[k] = v
		}
	}
	m, err := avail.Build(t.Model, p)
	if err != nil {
		return 0, nil, false
	}
	return n, m, true
}

// measure evaluates the target's response metric on one labeled instance;
// r continues the trial stream past the label draws.
func (t SweepTarget) measure(net *temporal.Network, r *rng.Stream) float64 {
	switch t.Metric {
	case "treach":
		if temporal.SatisfiesTreachSerial(net, nil) {
			return 1
		}
		return 0
	case "reach":
		if serialDiameter(net, 64, r).AllReachable {
			return 1
		}
		return 0
	default: // meandelta, validated upstream
		d := serialDiameter(net, 64, r)
		if d.MeanFinite != d.MeanFinite { // NaN: nothing reached
			return 0
		}
		return d.MeanFinite
	}
}

// Observable builds the per-cell, per-trial measurement. Each trial draws
// one substrate (randomized families consume the trial stream first;
// deterministic families are built once per size and shared — they never
// touch the stream, so caching cannot perturb trial randomness), one
// labeling, and reports the metric. Cells whose parameters are infeasible
// observe NaN (see cellParams).
func (t SweepTarget) Observable() (sweep.CellObservable, error) {
	t = t.withDefaults()
	if err := t.Validate(sweep.Grid{}); err != nil {
		return nil, err
	}
	var substrates sync.Map // n → *graph.Graph, deterministic families only
	substrate := func(n int, r *rng.Stream) (*graph.Graph, error) {
		if !deterministicFamilies[t.Graph] {
			return graph.Family(t.Graph, n, graph.FamilyOpts{}, r)
		}
		if g, ok := substrates.Load(n); ok {
			return g.(*graph.Graph), nil
		}
		g, err := graph.Family(t.Graph, n, graph.FamilyOpts{}, r)
		if err == nil {
			// Concurrent trials may race to build the same size; both
			// results are identical, so last-store-wins is harmless.
			substrates.Store(n, g)
		}
		return g, err
	}
	return func(values map[string]float64, trial int, r *rng.Stream) float64 {
		n, m, ok := t.cellParams(values)
		if !ok {
			return math.NaN()
		}
		g, err := substrate(n, r)
		if err != nil || g.N() == 0 {
			return math.NaN()
		}
		net := avail.Network(m, g, r)
		return t.measure(net, r)
	}, nil
}

// Source builds the per-cell trial source factory — the batched execution
// path behind sweep.Sweep.Source and Adaptive.EstimateSource. Cells over
// deterministic substrate families run through sim.BatchRunner: the cell's
// model and substrate are built once, and every trial relabels one
// per-worker network in place instead of rebuilding graph, labels and
// time-edge indexes from scratch. Randomized families (whose substrate
// must be drawn from each trial's stream before its labels) and
// infeasible cells fall back to the exact Observable semantics through a
// plain runner. Either way each cell's numbers are bit-identical to the
// Observable path for every worker count — only the trials/sec change;
// the differential tests pin this.
func (t SweepTarget) Source() (sweep.CellSource, error) {
	t = t.withDefaults()
	obs, err := t.Observable()
	if err != nil {
		return nil, err
	}
	return func(values map[string]float64, seed uint64, workers int, onTrial func()) sweep.Source {
		fallback := func(ctx context.Context, start, count int) ([]float64, error) {
			return sim.Runner{Seed: seed, Workers: workers, OnTrial: onTrial}.
				ScalarsFromContext(ctx, start, count, func(trial int, r *rng.Stream) float64 {
					return obs(values, trial, r)
				})
		}
		if !deterministicFamilies[t.Graph] {
			return fallback
		}
		n, m, ok := t.cellParams(values)
		if !ok {
			return fallback // Observable yields the per-trial NaNs
		}
		// Deterministic families never touch the stream, so a throwaway
		// one builds the same substrate every trial would have seen.
		g, err := graph.Family(t.Graph, n, graph.FamilyOpts{}, rng.New(0))
		if err != nil || g.N() == 0 {
			return fallback
		}
		b := sim.BatchRunner{Model: m, Substrate: g, Seed: seed, Workers: workers, OnTrial: onTrial}
		measure := t.measure
		if t.Metric == "treach" && !avail.IsScenario(m) {
			// The static half of the Treach decision depends only on the
			// substrate: compute it once per cell and ask each trial only
			// the temporal question. Same answers (pinned by the
			// differential tests), substantially cheaper trials. Scenario
			// models are excluded: their trials run on a per-trial support
			// graph, not on g, so a StaticReach built for g would be a
			// substrate mismatch (SatisfiesTreachStatic panics on it).
			sr := temporal.NewStaticReach(g)
			measure = func(net *temporal.Network, r *rng.Stream) float64 {
				if temporal.SatisfiesTreachStatic(net, sr, nil) {
					return 1
				}
				return 0
			}
		}
		return func(ctx context.Context, start, count int) ([]float64, error) {
			return b.ObserveFrom(ctx, start, count, func(trial int, net *temporal.Network, r *rng.Stream) float64 {
				return measure(net, r)
			})
		}
	}, nil
}
