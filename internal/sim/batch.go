package sim

// The batched trial engine. The paper's experiments (and E15–E18) hold the
// substrate graph fixed and only resample link availability per
// Monte-Carlo trial, yet the naive trial body rebuilds everything: it
// regenerates all edge labels, re-sorts them, and re-packs the per-vertex
// time-edge CSR through temporal.New. BatchRunner amortizes all of that:
// each worker goroutine owns one substrate + temporal.Network whose
// indexes are rebuilt in place per trial (the model's Resample redraws the
// labels into a reusable buffer, temporal.Relabel re-sorts and re-packs
// over the existing arrays), so a steady-state trial allocates nothing on
// the labeling path. Results are bit-identical to building avail.Network
// inside the trial body — avail.Network draws through the same Resample,
// and Relabel rebuilds exactly New's indexes — for any worker count; the
// differential tests pin this against the rebuild oracle. Worker networks
// outlive one call on a FreeList that every runner over one substrate
// shares, so table rows, sweep cells and bisection probes over that
// substrate relabel warm networks instead of building fresh ones.

import (
	"slices"
	"sync"

	"repro/internal/avail"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// BatchRunner is the Monte-Carlo engine: it runs independent seeded
// trials across a worker pool, each drawing at most one network of Model
// over Substrate through an amortized in-place path. Set Model and
// Substrate (and usually Seed); a runner without a Model runs trials that
// draw no network.
//
// Fixed-substrate models take the Resample + Relabel route. Scenario
// models (the mobility models and the sweep's randomized substrate
// families, whose support graph changes per trial) take the
// avail.NewState + RelabelEdges route: each worker owns its support graph
// and replaces its edges and labels in place. Both routes are
// bit-identical to a per-trial avail.Network.
type BatchRunner struct {
	// Model draws the availability labels; trial i consumes
	// rng.NewStream(Seed, i) exactly as avail.Network would.
	Model avail.Model
	// Substrate is the static support graph every trial labels. Scenario
	// models use only its vertex count (their Generate builds the rest).
	Substrate *graph.Graph
	// Seed is the base seed; trial i uses rng.NewStream(Seed, i).
	Seed uint64
	// Workers bounds parallelism; 0 means GOMAXPROCS. Each worker owns one
	// network instance; results are bit-identical for every value.
	Workers int
	// OnTrial, when non-nil, fires once per completed trial from worker
	// goroutines; it must be safe for concurrent use.
	OnTrial func()
	// FreeList, when non-nil, is the free list shared with the other
	// runners over this substrate; nil keeps a private one, which survives
	// this runner's calls only.
	FreeList *FreeList

	// own is the private free list; methods take a pointer receiver so it
	// survives calls.
	own FreeList
}

// FreeList holds idle batch workers — each a substrate network with its
// warmed index buffers — between calls. Worker goroutines acquire at batch
// start and release when the batch drains, so a worker persists across
// the many small batches an adaptive estimation loop issues, and, when
// runners share one list, across table rows, sweep cells and bisection
// probes. A fixed-substrate worker is rebound to any fixed-substrate model
// of the same substrate and lifetime: Relabel rebuilds every index from
// the new labels, so the worker's history never shows in a number. A
// scenario worker serves only the runner that built it. An acquisition that
// finds no fitting worker builds a fresh one and drops the list's idle
// workers, so the list holds one binding's workers at a time. The zero
// value is an empty list; drop the list together with its substrate.
type FreeList struct {
	mu   sync.Mutex
	free []*batchWorker
}

func (b *BatchRunner) list() *FreeList {
	if b.FreeList != nil {
		return b.FreeList
	}
	return &b.own
}

// batchWorker is one worker goroutine's reusable instance state.
type batchWorker struct {
	owner     *BatchRunner // the runner the worker was built for or last rebound to
	model     avail.Model
	lifetime  int // the model's, fixed for the worker's network
	substrate *graph.Graph
	ss        avail.ScenarioState // non-nil selects the scenario route
	net       *temporal.Network
	lab       temporal.Labeling

	// resampled/scenario count this worker's trials per route since it
	// was acquired; release flushes them to the process counters so the
	// per-trial path stays free of shared atomics.
	resampled uint64
	scenario  uint64
}

func (b *BatchRunner) acquire() *batchWorker {
	// The model is asked for its route and lifetime before the lock, so
	// no model code runs under it.
	sc, scenario := b.Model.(avail.Scenario)
	lifetime := b.Model.Lifetime()
	l := b.list()
	l.mu.Lock()
	for i := len(l.free) - 1; i >= 0; i-- {
		if w := l.free[i]; w.fits(b, scenario, lifetime) {
			l.free = slices.Delete(l.free, i, i+1)
			l.mu.Unlock()
			obsFreelistHits.Inc()
			return w
		}
	}
	clear(l.free)
	l.free = l.free[:0]
	l.mu.Unlock()
	obsFreelistMisses.Inc()
	w := &batchWorker{owner: b, model: b.Model, lifetime: lifetime, substrate: b.Substrate}
	if scenario {
		w.ss = avail.NewState(sc, b.Substrate.N())
	}
	return w
}

// fits reports whether w can serve runner b, whose model is a scenario or
// not and has the given lifetime, rebinding a fixed-substrate worker to
// b's model when b is another fixed-substrate runner with the same
// substrate and lifetime.
func (w *batchWorker) fits(b *BatchRunner, scenario bool, lifetime int) bool {
	if w.owner == b {
		return true
	}
	if w.ss != nil || scenario || w.substrate != b.Substrate || w.lifetime != lifetime {
		return false
	}
	w.owner, w.model = b, b.Model
	return true
}

func (b *BatchRunner) release(w *batchWorker) {
	obsBatchResample.Add(w.resampled)
	obsBatchScenario.Add(w.scenario)
	w.resampled, w.scenario = 0, 0
	l := b.list()
	l.mu.Lock()
	l.free = append(l.free, w)
	l.mu.Unlock()
}

// instance draws the trial's labeled network by one of two routes, both
// consuming stream as avail.Network does, so downstream measurements
// cannot tell them from a fresh network:
//
//   - Resample + Relabel for fixed-substrate models: the labels are
//     redrawn into a reused buffer and the temporal indexes rebuilt in
//     place;
//   - ScenarioState + RelabelEdges for scenario models: the trial's
//     support-graph edge list and labels are redrawn into worker state and
//     replace the worker network's edges and labels in place (the graph is
//     worker-owned, so the mutation is safe).
func (w *batchWorker) instance(stream *rng.Stream) *temporal.Network {
	if w.ss != nil {
		w.scenario++
		from, to, lab := w.ss.Resample(stream)
		if w.net == nil {
			// First trial on this worker: build a worker-owned edgeless
			// graph and its index skeleton, then relabel, as on the
			// resample route.
			g := graph.NewBuilder(w.substrate.N(), false).Build()
			w.net = temporal.MustNew(g, w.lifetime, temporal.Labeling{Off: make([]int32, 1)})
		}
		if err := w.net.RelabelEdges(from, to, lab); err != nil {
			// ScenarioState's contract (Generate's edge list, well-formed
			// labeling) makes this unreachable.
			panic("sim: scenario trial rejected: " + err.Error())
		}
		return w.net
	}
	w.resampled++
	w.model.Resample(w.substrate, &w.lab, stream)
	if w.net == nil {
		// First trial on this worker: build the index skeleton from an
		// empty labeling, then relabel — the network then never aliases
		// the resample buffer, which the next trial overwrites.
		empty := temporal.Labeling{Off: make([]int32, w.substrate.M()+1)}
		w.net = temporal.MustNew(w.substrate, w.lifetime, empty)
	}
	if err := w.net.Relabel(w.lab); err != nil {
		// Resample's contract (labels in range, offsets well-formed) makes
		// this unreachable; a model violating it is a programming error.
		panic("sim: resampled labeling rejected: " + err.Error())
	}
	return w.net
}
