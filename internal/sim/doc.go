// Package sim is the parallel Monte-Carlo harness behind every experiment:
// it runs independent randomized trials across a worker pool and aggregates
// named metrics into stats.Samples.
//
// Determinism is the contract: trial i always receives the stream
// rng.NewStream(seed, i), and aggregation happens in trial order after all
// workers finish, so results are bit-identical for any worker count or
// scheduling.
//
// Two executors share that contract: Runner, the general harness (with a
// scalar fast path, ScalarsFromContext, for single-valued observables),
// and BatchRunner (batch.go), the batched trial engine for
// availability-model workloads. BatchRunner picks one of three per-worker
// routes from the model's capabilities, cheapest applicable first:
//
//   - Resample + Relabel: models implementing avail.Resampler (the i.i.d.
//     laws, markov, pt-*) keep the substrate fixed, so each trial redraws
//     labels into a reused buffer and temporal.Relabel rebuilds the
//     time-edge indexes in place — zero steady-state allocations.
//   - ScenarioState + RelabelEdges: scenario models implementing
//     avail.IncrementalScenario (geometric) redraw the edge set too. The
//     worker holds one reusable ScenarioState and one private network;
//     each trial diffs the new canonical edge list against the previous
//     one (a linear merge) and patches topology and labels through
//     temporal.RelabelEdges instead of rebuilding from scratch.
//   - Full rebuild: everything else — non-incremental scenarios, or a
//     NewScenarioState that returned nil for this size — constructs a
//     fresh avail.Network per trial.
//
// All three are bit-identical to the naive rebuild path for the same
// (seed, trial) stream; the counters
// sim_batch_{resample,scenario,rebuild}_trials_total record which route
// each trial took. A trial body usually receives its network already
// drawn (RunFromContext, ObserveFrom); one that spends stream on other
// work first draws it itself, mid-trial, through the worker's Draw
// (RunDrawFromContext) — same network, same stream position as
// avail.Network at that point.
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
// Which trials take which executor: every trial that measures one
// randomly labeled network over a fixed substrate runs on BatchRunner —
// the experiment drivers' E1–E5, E7 and E10–E17 trials, core's r(n)
// probes behind E6 and E8, and the batched sweep cells. Each driver
// shares one free list per substrate across the rows it runs there (E1's
// two tables per n, E3b's ablation, E18's cells and probes per clique,
// core's r probes). Runner keeps the trials that draw no labeled network
// over a fixed substrate: E7b's coupon draws, E9's G(n, p) substrates,
// and sweep cells over randomized substrate families such as gnp.
package sim
