package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

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
// alpha > 1) — which Source surfaces as NaN observations so the adaptive
// estimator fails the cell loudly; a confident 0 there would invert the
// response at the feasibility edge and break threshold bracketing.
// Nothing here touches a trial stream, so resolving it once per cell
// changes no draw against resolving it per trial.
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

// Source builds the per-cell trial source factory behind sweep.Sweep.Source
// and Adaptive.EstimateSource: one sim.BatchRunner per cell, with the
// cell's model built once. Deterministic substrate families are built once
// per cell and every trial relabels a per-worker network in place.
// Randomized families (tree, gnp, regular) draw their substrate from each
// trial's stream before its labels, so the cell's model is wrapped as a
// scenario that does both and the runner rebuilds each trial's network
// through it. Cells whose parameters are infeasible observe NaN on a
// runner without a model (see cellParams). Each trial's numbers are a
// function of (cell seed, trial index) only, never of the worker count;
// the differential tests pin them against the per-trial rebuild.
func (t SweepTarget) Source() (sweep.CellSource, error) {
	t = t.withDefaults()
	if err := t.Validate(sweep.Grid{}); err != nil {
		return nil, err
	}
	return func(values map[string]float64, seed uint64, workers int, onTrial func()) sweep.Source {
		b := &sim.BatchRunner{Seed: seed, Workers: workers, OnTrial: onTrial}
		n, m, ok := t.cellParams(values)
		if !ok || graph.CheckFamily(t.Graph, n, graph.FamilyOpts{}) != nil {
			return func(ctx context.Context, start, count int) ([]float64, error) {
				return b.ObserveFrom(ctx, start, count, func(int, *temporal.Network, *rng.Stream) float64 {
					return math.NaN()
				})
			}
		}
		if deterministicFamilies[t.Graph] {
			// Deterministic families never touch the stream, so a throwaway
			// one builds the same substrate every trial would have seen;
			// CheckFamily above rules out the error.
			b.Substrate, _ = graph.Family(t.Graph, n, graph.FamilyOpts{}, rng.New(0))
		} else {
			// The scenario generates the whole support graph; the runner
			// needs only the vertex count.
			b.Substrate = graph.NewBuilder(n, false).Build()
			m = familyScenario{Model: m, family: t.Graph}
		}
		b.Model = m
		measure := t.measure
		if t.Metric == "treach" && !avail.IsScenario(m) {
			// The static half of the Treach decision depends only on the
			// substrate: compute it once per cell and ask each trial only
			// the temporal question. Same answers (pinned by the
			// differential tests), substantially cheaper trials. Scenario
			// models are excluded: their trials run on a per-trial support
			// graph, not on the substrate, so a StaticReach built for it
			// would be a substrate mismatch (SatisfiesTreachStatic panics
			// on it).
			sr := temporal.NewStaticReach(b.Substrate)
			measure = func(net *temporal.Network, r *rng.Stream) float64 {
				if temporal.SatisfiesTreachStatic(net, sr, nil) {
					return 1
				}
				return 0
			}
		}
		return func(ctx context.Context, start, count int) ([]float64, error) {
			return b.ObserveFrom(ctx, start, count, func(_ int, net *temporal.Network, r *rng.Stream) float64 {
				return measure(net, r)
			})
		}
	}, nil
}

// familyScenario draws a randomized substrate family per trial and labels
// it with the embedded model: Generate builds graph.Family(family, n, r)
// and then draws the labeling exactly as avail.Network(Model, g, r) does,
// so a trial consumes its stream as the per-trial rebuild does. Embedding
// the avail.Model interface hides the model's own fast paths (Resampler,
// IncrementalScenario), so sim.BatchRunner rebuilds every trial.
type familyScenario struct {
	avail.Model
	family string
}

func (s familyScenario) Generate(n int, r *rng.Stream) (*graph.Graph, temporal.Labeling) {
	g, err := graph.Family(s.family, n, graph.FamilyOpts{}, r)
	if err != nil {
		// Source runs graph.CheckFamily on the cell first.
		panic("experiments: " + err.Error())
	}
	if sc, ok := s.Model.(avail.Scenario); ok {
		return sc.Generate(g.N(), r)
	}
	return g, s.Assign(g, r)
}
