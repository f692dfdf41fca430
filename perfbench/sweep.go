package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/avail"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/temporal"
)

// sweepWorkload locates connectivity thresholds at a stated precision,
// the way users of the connectivity results run them: two cmd/sweep
// threshold searches and one POST /sweeps-style grid per pass.
var sweepWorkload = passWorkload{
	name:     "sweep",
	passSecs: 3,
	opsName:  "searches and grid cells",
	pass:     sweepPass,
	nSetups:  3,
	pins:     sweepPins,
	layers:   sweepLayers,
}

// sweepPins are the pass digests of the default seed's timed passes at
// the default run length.
var sweepPins = map[uint64]string{
	121464332919225: "4a7cff2fb64d898cbed49b09468c9307",
	209918902756750: "20108052197e4d43063dee6a7aa2a29a",
	210866889821180: "95d5234f88f7cff697b2c6537e184856",
	197115100429185: "c02105811fc9837bd68f1854a37ffcfc",
	251190196194200: "1094e3036be85a1ad766287825c90e97",
	211755599762327: "e4d8baa054d7eb087c3f3e23c219b52d",
	125626144143697: "89dfc5612690ebba9ea99840ed221f65",
}

// thresholdSpec is one cmd/sweep threshold search: the flags
//
//	-model M -mp MP -grid n=N -target 0.5 -knob K -bracket Lo:Hi -tol Tol -precision abs=Abs
type thresholdSpec struct {
	model    string
	mp       map[string]float64
	n        float64
	knob     string
	lo, hi   float64
	tol, abs float64
}

var sweepSearches = []thresholdSpec{
	{model: "markov", mp: map[string]float64{"runlen": 4}, n: 64, knob: "pi", lo: 0.002, hi: 0.05, tol: 0.004, abs: 0.05},
	{model: "geometric", n: 100, knob: "radius", lo: 0.01, hi: 0.1, tol: 0.008, abs: 0.05},
}

// sweepGrid is the POST /sweeps body of the pass's grid, with the pass
// seed filled in.
func sweepGrid(seed uint64) service.SweepRequest {
	return service.SweepRequest{
		Model: "uniform", Metric: "meandelta", Seed: seed,
		Grid: []sweep.Axis{
			{Name: "n", Values: []float64{64}},
			{Name: "lifetime", Values: []float64{16, 32, 64}},
		},
		Precision: sweep.Precision{Abs: 0.02},
	}.Canonical()
}

// crossingRow mirrors cmd/sweep's JSON record of a located threshold.
type crossingRow struct {
	Context  map[string]float64 `json:"context,omitempty"`
	Crossing sweep.Crossing     `json:"crossing"`
	Estimate sweep.Estimate     `json:"estimate_at_crossing"`
	Trials   int                `json:"trials_total"`
}

// sweepPass runs both threshold searches and the grid on seed. Untraced,
// the searches run exactly cmd/sweep's threshold loop over
// SweepTarget.Source and the grid runs the service's sweep job body
// (SweepRequest.Target().Source() + Spec().Run). Traced, the same
// searches run over tracedSource, which draws from timing wrappers of
// the same models and must reproduce every estimate bit for bit.
func sweepPass(ctx context.Context, seed uint64, env passEnv) (passOutcome, error) {
	var out passOutcome
	var onTrial func()
	if env.clock != nil {
		onTrial = env.clock.tick
	}
	tr, lay := env.tr, env.lay
	h := sha256.New()
	for _, sp := range sweepSearches {
		if env.toy {
			sp.tol, sp.abs = 2*sp.tol, 0.1
		}
		out.attempted++
		row, err := runThreshold(ctx, sp, seed, env.workers, onTrial, tr, lay)
		if err != nil {
			return out, fmt.Errorf("%s threshold: %w", sp.model, err)
		}
		cr := row.Crossing
		if !cr.Converged || !(cr.Lo <= cr.X && cr.X <= cr.Hi) || math.IsNaN(row.Estimate.Point) {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("%s threshold seed %d: unconverged or outside its bracket: %+v", sp.model, seed, cr))
		}
		if err := json.NewEncoder(h).Encode(row); err != nil {
			return out, err
		}
		out.trials += row.Trials
		out.ops++
	}

	req := sweepGrid(seed)
	if env.toy {
		req.Precision.Abs = 0.1
	}
	s := req.Spec()
	s.Workers = env.workers
	s.OnTrial = onTrial
	root := tr.root("sweep.grid")
	root.SetAttr("model", req.Model)
	if tr == nil {
		src, err := req.Target().Source()
		if err != nil {
			return out, err
		}
		s.Source = src
	} else {
		s.Source = tracedSource(req.Target(), &root, lay)
	}
	cp, err := s.Run(ctx, nil, nil)
	root.End()
	out.attempted += s.Grid.Size()
	if err != nil {
		return out, fmt.Errorf("grid: %w", err)
	}
	prev := 0.0
	for i, cell := range cp.Cells {
		est := cell.Est
		// Mean first-arrival delay grows with the label range.
		if cell.Index != i || est.N == 0 || !est.Converged || !(est.Point > prev) {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("grid seed %d cell %d: %+v", seed, i, est))
		}
		prev = est.Point
		out.trials += est.N
		out.ops++
	}
	if err := json.NewEncoder(h).Encode(cp); err != nil {
		return out, err
	}
	out.digest = fmt.Sprintf("%x", h.Sum(nil)[:16])
	return out, nil
}

// runThreshold is cmd/sweep's threshold mode for a one-cell grid.
func runThreshold(ctx context.Context, sp thresholdSpec, seed uint64, workers int, onTrial func(), tr *tracer, lay *layerAcc) (crossingRow, error) {
	tgt := experiments.SweepTarget{Model: sp.model, MP: sp.mp, Graph: "dclique", Metric: "treach"}
	cellValues := map[string]float64{"n": sp.n}
	knobGrid := sweep.Grid{Axes: []sweep.Axis{{Name: "n", Values: []float64{sp.n}}, {Name: sp.knob, Values: []float64{1}}}}
	if err := tgt.Validate(knobGrid); err != nil {
		return crossingRow{}, err
	}
	root := tr.root("sweep.threshold")
	root.SetAttr("model", sp.model)
	defer root.End()
	var src sweep.CellSource
	if tr == nil {
		var err error
		if src, err = tgt.Source(); err != nil {
			return crossingRow{}, err
		}
	} else {
		src = tracedSource(tgt, &root, lay)
	}
	a := sweep.Adaptive{
		Seed:    sweep.CellSeed(seed, 1<<20),
		Workers: workers, Kind: tgt.Kind(), Prec: sweep.Precision{Abs: sp.abs},
	}
	cr, last, trials, err := sweep.Threshold{
		Target: 0.5, Lo: sp.lo, Hi: sp.hi, Tol: sp.tol, MaxEvals: 32,
	}.FindAdaptiveSource(ctx, a, func(x float64) sweep.Source {
		vals := make(map[string]float64, len(cellValues)+1)
		for k, v := range cellValues {
			vals[k] = v
		}
		vals[sp.knob] = x
		return src(vals, a.Seed, a.Workers, onTrial)
	})
	return crossingRow{Context: cellValues, Crossing: cr, Estimate: last, Trials: trials}, err
}

// tracedSource is SweepTarget.Source for the deterministic-substrate
// cells this workload runs, rebuilt from the same public pieces with the
// model wrapped so that every trial's label draw, relabel and kernel
// call are timed, and every batch (one Source call) is a span under
// parent. Each trial consumes its stream exactly as on the untraced path,
// so estimates stay bit-identical; the traced run checks that.
func tracedSource(t experiments.SweepTarget, parent *obs.Span, lay *layerAcc) sweep.CellSource {
	return func(values map[string]float64, seed uint64, workers int, onTrial func()) sweep.Source {
		n := int(math.Round(values["n"]))
		lifetime := n
		if t.Lifetime > 0 {
			lifetime = t.Lifetime
		}
		if v, ok := values["lifetime"]; ok {
			lifetime = int(math.Round(v))
		}
		p := avail.Params{Lifetime: lifetime, P: map[string]float64{}}
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
			return func(context.Context, int, int) ([]float64, error) { return nil, err }
		}
		g, err := graph.Family(t.Graph, n, graph.FamilyOpts{}, rng.New(0))
		if err != nil {
			return func(context.Context, int, int) ([]float64, error) { return nil, err }
		}
		tm := &timedModel{name: t.Model, lay: lay}
		b := &sim.BatchRunner{Model: tm.wrap(m), Substrate: g, Seed: seed, Workers: workers, OnTrial: onTrial}
		measure := kernelFor(t, m, g)
		return func(ctx context.Context, start, count int) ([]float64, error) {
			batch := parent.Child("sweep.source")
			batch.SetAttr("model", t.Model)
			batch.SetAttrInt("trials", int64(count))
			defer batch.End()
			// Set between batches only: the engine's workers start after
			// this write and have all exited before the next one.
			tm.batch = &batch
			lay.sum("sweep."+t.Model+".batches", 1)
			lay.sum("sweep."+t.Model+".trials", float64(count))
			return b.ObserveFrom(ctx, start, count, func(trial int, net *temporal.Network, r *rng.Stream) float64 {
				entry := time.Now()
				d := tm.drawn(r)
				lay.add("temporal."+t.Model+".relabel_us", float64(entry.Sub(d.end))/1e3)
				var ks obs.Span
				if d.relabel != nil {
					d.relabel.End()
					ks = batch.Child("temporal.kernel")
				}
				v := measure(net, r)
				ks.End()
				lay.add("temporal."+t.Model+".kernel_us", float64(time.Since(entry))/1e3)
				return v
			})
		}
	}
}

// kernelFor is SweepTarget's per-trial measurement for the target's
// metric: the static Treach shortcut on fixed substrates, the serial
// Treach check on scenario models (whose support graph changes per
// trial), and the mean finite delay over every source for meandelta on
// substrates of at most 64 vertices.
func kernelFor(t experiments.SweepTarget, m avail.Model, g *graph.Graph) func(*temporal.Network, *rng.Stream) float64 {
	switch {
	case t.Metric == "meandelta":
		sources := make([]int, g.N())
		for i := range sources {
			sources[i] = i
		}
		return func(net *temporal.Network, _ *rng.Stream) float64 {
			d := temporal.DiameterFromSerial(net, sources)
			if math.IsNaN(d.MeanFinite) {
				return 0
			}
			return d.MeanFinite
		}
	case avail.IsScenario(m):
		return func(net *temporal.Network, _ *rng.Stream) float64 {
			if temporal.SatisfiesTreachSerial(net, nil) {
				return 1
			}
			return 0
		}
	default:
		sr := temporal.NewStaticReach(g)
		return func(net *temporal.Network, _ *rng.Stream) float64 {
			if temporal.SatisfiesTreachStatic(net, sr, nil) {
				return 1
			}
			return 0
		}
	}
}

// timedModel times the label draws of one probe's model and remembers,
// per trial stream, when the draw returned, so the observable can time
// the relabel that follows it. One draw in spanEvery also opens spans.
type timedModel struct {
	name  string
	lay   *layerAcc
	batch *obs.Span
	draws atomic.Uint64
	mu    sync.Mutex
	ends  map[*rng.Stream]drawEnd
}

type drawEnd struct {
	end     time.Time
	relabel *obs.Span // open relabel span of a sampled trial
}

const spanEvery = 64

func (tm *timedModel) wrap(m avail.Model) avail.Model {
	tm.ends = make(map[*rng.Stream]drawEnd)
	switch inner := m.(type) {
	case avail.IncrementalScenario:
		return timedScenario{IncrementalScenario: inner, tm: tm}
	case avail.Resampler:
		if avail.CanResample(m) {
			return timedResampler{Resampler: inner, tm: tm}
		}
	}
	return m
}

// timeDraw runs draw, records its duration, and marks the stream.
func (tm *timedModel) timeDraw(stream *rng.Stream, draw func()) {
	sampled := tm.draws.Add(1)%spanEvery == 1
	var ds obs.Span
	if sampled {
		ds = tm.batch.Child("avail.draw")
	}
	t0 := time.Now()
	draw()
	end := time.Now()
	ds.End()
	tm.lay.add("avail."+tm.name+".draw_us", float64(end.Sub(t0))/1e3)
	d := drawEnd{end: end}
	if sampled {
		rs := tm.batch.Child("temporal.relabel")
		d.relabel = &rs
	}
	tm.mu.Lock()
	tm.ends[stream] = d
	tm.mu.Unlock()
}

// drawn returns and forgets the draw record of a trial's stream.
func (tm *timedModel) drawn(stream *rng.Stream) drawEnd {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	d := tm.ends[stream]
	delete(tm.ends, stream)
	return d
}

// timedResampler is a fixed-substrate model whose in-place draws are
// timed; it is not a Scenario, so the engine keeps its Resample route.
type timedResampler struct {
	avail.Resampler
	tm *timedModel
}

func (m timedResampler) Resample(g *graph.Graph, lab *temporal.Labeling, stream *rng.Stream) {
	m.tm.timeDraw(stream, func() { m.Resampler.Resample(g, lab, stream) })
}

// timedScenario is an incremental scenario model whose per-worker
// states' draws are timed.
type timedScenario struct {
	avail.IncrementalScenario
	tm *timedModel
}

func (m timedScenario) NewScenarioState(n int) avail.ScenarioState {
	st := m.IncrementalScenario.NewScenarioState(n)
	if st == nil {
		return nil
	}
	return &timedState{ScenarioState: st, tm: m.tm}
}

type timedState struct {
	avail.ScenarioState
	tm *timedModel
}

func (s *timedState) Resample(stream *rng.Stream) (from, to []int32, lab temporal.Labeling) {
	s.tm.timeDraw(stream, func() { from, to, lab = s.ScenarioState.Resample(stream) })
	return from, to, lab
}

// sweepLayers reports, per model, the median over passes of the search's
// (or grid's) self time — its wall time minus the time inside Source
// calls — together with the per-trial draw, relabel and kernel medians
// and the per-pass batch and trial counts.
func sweepLayers(recs []obs.SpanRecord, lay *layerAcc, vals map[string]float64) {
	self := selfTimes(recs)
	perModel := make(map[string][]float64)
	for _, r := range recs {
		if r.Name == "sweep.threshold" || r.Name == "sweep.grid" {
			m := spanAttr(r, "model")
			perModel[m] = append(perModel[m], float64(self[r.ID])/1e6)
		}
	}
	for _, m := range sweepModels {
		vals["sweep."+m+".self_ms"] = median(perModel[m])
		vals["sweep."+m+".batches"] = median(lay.get("sweep." + m + ".batches"))
		vals["sweep."+m+".trials"] = median(lay.get("sweep." + m + ".trials"))
		vals["avail."+m+".draw_us"] = median(lay.get("avail." + m + ".draw_us"))
		vals["temporal."+m+".relabel_us"] = median(lay.get("temporal." + m + ".relabel_us"))
		vals["temporal."+m+".kernel_us"] = median(lay.get("temporal." + m + ".kernel_us"))
	}
}
