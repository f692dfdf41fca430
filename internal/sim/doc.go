// Package sim is the parallel Monte-Carlo engine behind every experiment:
// BatchRunner runs independent randomized trials across a worker pool and
// aggregates named metrics into stats.Samples (Run) or returns one scalar
// observation per trial (ObserveFrom).
//
// Determinism is the contract: trial i always receives the stream
// rng.NewStream(seed, i), and aggregation happens in trial order after all
// workers finish, so results are bit-identical for any worker count or
// scheduling, and a trial range split in two gives the trials of the whole.
//
// A trial measures at most one network, drawn by the runner's Model over
// its Substrate. A runner without a Model runs trials that draw no
// network: its Draw returns nil and consumes no stream, ObserveFrom hands
// its body a nil network, and it never touches a free list. With a Model,
// BatchRunner picks one of three per-worker routes from the model's
// capabilities, cheapest applicable first:
//
//   - Resample + Relabel: models implementing avail.Resampler (the i.i.d.
//     laws, markov, pt-*) keep the substrate fixed, so each trial redraws
//     labels into a reused buffer and temporal.Relabel rebuilds the
//     time-edge indexes in place — zero steady-state allocations.
//   - ScenarioState + RelabelEdges: scenario models implementing
//     avail.IncrementalScenario (geometric) redraw the edge set too. The
//     worker holds one reusable ScenarioState and one private network,
//     built empty on its first trial; each trial's whole edge list and
//     labeling replace the network's through temporal.RelabelEdges, which
//     rebuilds the graph and indexes over their buffers.
//   - Full rebuild: everything else — non-incremental scenarios, or a
//     NewScenarioState that returned nil for this size — constructs a
//     fresh avail.Network per trial. The sweep cells over randomized
//     substrate families (tree, gnp, regular) take this route: their model
//     is wrapped as a scenario that draws the substrate from the trial's
//     stream before its labels.
//
// All three are bit-identical to the naive rebuild path for the same
// (seed, trial) stream; the counters
// sim_batch_{resample,scenario,rebuild}_trials_total record which route
// each trial took. A trial body draws its network through the worker's
// Draw at the point of its stream where it needs one — first thing for
// most, after other work for E10's phone-call walks — and gets the same
// network, at the same stream position, as avail.Network at that point;
// ObserveFrom draws before its body runs.
//
// Worker networks live on a FreeList between calls. A runner alone keeps
// a private list; runners over one substrate share one, so a worker warmed
// by one table row, sweep cell or bisection probe serves the next. A
// resample-route worker is rebound to the next runner's model when
// substrate and lifetime match (Relabel rebuilds every index from the new
// labels); scenario and rebuild workers serve only the runner that built
// them; anything else gets a fresh worker. The caller drops a shared list
// with its substrate. sim_worker_freelist_{hits,misses}_total count
// acquisitions served warm and built fresh.
//
// Every trial runs on BatchRunner: the experiment drivers through one
// helper (E1–E5, E7 and E10–E17 draw a labeled network; E7b's coupon draws
// and E9's G(n, p) substrates draw none), core's r(n) probes behind E6 and
// E8, every sweep cell, and sweep.Adaptive.Estimate, which runs its
// observable on a runner without a Model. Each driver shares one free list
// per substrate across the rows it runs there (E1's two tables per n,
// E3b's ablation, E18's cells and probes per clique, core's r probes).
package sim
